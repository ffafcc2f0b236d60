package analysis

import (
	"go/ast"
	"go/types"
)

// PartWrite audits the partitioned kernel's single-writer contract. The
// scheduler (internal/sim) unions a module with every signal in its
// declared Drives, so any two *declared* drivers of a signal always share a
// partition and tick in registration order, exactly as on the legacy
// kernel. The contract therefore breaks only through an *undeclared* write:
//
//   - in the settle phase, sensaudit already reports Eval drives missing
//     from the declaration;
//   - in the tick phase, partitions tick one after another in
//     partition-index order, not registration order, and a signal change
//     wakes readers through the partition that owns the signal. A Tick that
//     drives a signal absent from its module's declared Drives may be
//     writing a wire owned by another partition, so another partition's
//     Tick can observe the write before or after the point the legacy
//     kernel would have shown it. That breaks equivalence with the legacy
//     kernel even though nothing runs concurrently, and the union-find can
//     never see it, because partitioning is computed from the declarations.
//
// PartWrite proves the complement statically: for every module type with a
// resolvable Sensitivity declaration, the symbolically-evaluated drive set
// of Tick (through helpers, closures at creation, cross-package expansion)
// must be contained in the declared Drives. Modules declaring ReadsAll are
// exempt (the fine partitioner collapses them into one partition with
// everything they could touch); calls Tick makes that cannot be resolved
// while signals flow into them are reported, because an invisible drive
// behind them would void the proof. It is the static complement of the
// legacy-vs-scheduler golden matrix: the matrix catches a reordered tick on
// the designs it happens to run, partwrite rejects the module shape that
// makes one possible.
var PartWrite = &Analyzer{
	Name: "partwrite",
	Doc:  "prove tick-phase signal writes stay inside each module's declared Drives (sub-partition single-writer contract)",
	Run:  runPartWrite,
}

func runPartWrite(pass *Pass) error {
	for _, file := range pass.Pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "Tick" || fd.Recv == nil || fd.Body == nil {
				continue
			}
			auditTick(pass, fd)
		}
	}
	return nil
}

// auditTick checks one Tick method's drive set against the receiver type's
// declared Drives.
func auditTick(pass *Pass, tickFD *ast.FuncDecl) {
	fnObj, ok := pass.Pkg.Info.Defs[tickFD.Name].(*types.Func)
	if !ok {
		return
	}
	sig := fnObj.Type().(*types.Signature)
	if sig.Recv() == nil || sig.Params().Len() != 0 {
		return
	}
	recvT := sig.Recv().Type()
	_, typeName, named := namedType(recvT)
	if !named {
		return
	}
	// Only module types participate in the schedule: they need an Eval too.
	evalObj, _, _ := types.LookupFieldOrMethod(recvT, true, pass.Pkg.Types, "Eval")
	if evalFn, ok := evalObj.(*types.Func); !ok {
		return
	} else if esig, ok := evalFn.Type().(*types.Signature); !ok || esig.Params().Len() != 0 {
		return
	}
	sensObj, _, _ := types.LookupFieldOrMethod(recvT, true, pass.Pkg.Types, "Sensitivity")
	sensFn, ok := sensObj.(*types.Func)
	if !ok {
		return // no declaration: kernel falls back to ReadsAll (one merged partition)
	}
	if ssig, ok := sensFn.Type().(*types.Signature); !ok ||
		ssig.Params().Len() != 0 || ssig.Results().Len() != 1 ||
		!isSimType(ssig.Results().At(0).Type(), "Sensitivity") {
		return // same-named method of a different shape
	}

	recvName := typeName
	if len(tickFD.Recv.List) > 0 && len(tickFD.Recv.List[0].Names) > 0 {
		recvName = tickFD.Recv.List[0].Names[0].Name
	}

	decl := declaredSensOf(pass.Loader, sensFn, pathset{}.add(":recv", tickFD.Pos()), 0)
	if decl.unresolved {
		pass.Report(tickFD.Pos(),
			"cannot determine the Sensitivity declaration of %s statically; the single-writer audit needs the declared Drives — simplify Sensitivity or declare ReadsAll", typeName)
		return
	}
	if decl.readsAll {
		return // fine partitioner merges a ReadsAll module with everything it reads
	}

	sc := &scan{ld: pass.Loader}
	sc.scanFunc(pass.Pkg, tickFD, pathset{}.add(":recv", tickFD.Pos()), nil)

	for _, u := range sc.unresolved {
		pass.Report(clampPos(pass.Pkg, u.pos, tickFD),
			"cannot statically resolve call to %s reached from Tick of %s: a drive behind it would break the sub-partition single-writer contract; declare ReadsAll or waive with //lint:partwrite <reason>", u.what, typeName)
	}
	for _, p := range sortedPaths(sc.drives) {
		if _, ok := decl.drives[p]; !ok {
			pass.Report(clampPos(pass.Pkg, sc.drives[p], tickFD),
				"Tick of %s drives %s, which is not in its declared Drives: the signal may be owned by another sub-partition and tick phases run unordered in parallel (single-writer violation); declare the drive or Tie the modules",
				typeName, renderPath(p, recvName))
		}
	}
}
