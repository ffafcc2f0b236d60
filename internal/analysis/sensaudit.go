package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
)

// SensAudit checks, for every module type in the package, that the static
// Sensitivity declaration matches the signals Eval actually touches:
//
//   - a signal read by Eval but absent from Reads∪Drives is a missed-wakeup
//     bug (the scheduler will not re-run Eval when that signal changes);
//   - a signal driven by Eval but absent from Drives is a hidden writer: a
//     module that re-reads the signal under its own Drives declaration
//     assumes nobody else changes it, and can miss a wakeup;
//   - a declared signal Eval never touches is a dead declaration that
//     causes spurious wakeups and hides real dependencies.
//
// Types whose Eval cannot be resolved statically (calls through interfaces
// or func values that signals flow into) must either declare ReadsAll or
// carry a //lint:sensaudit waiver. Types with no Sensitivity method are
// skipped: the kernel already falls back to ReadsAll for them and reports
// them in Stats.ReadsAllModules.
var SensAudit = &Analyzer{
	Name: "sensaudit",
	Doc:  "audit module Sensitivity declarations against the signals Eval reads and drives",
	Run:  runSensAudit,
}

func runSensAudit(pass *Pass) error {
	for _, file := range pass.Pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "Eval" || fd.Recv == nil || fd.Body == nil {
				continue
			}
			auditEval(pass, fd)
		}
	}
	return nil
}

func auditEval(pass *Pass, evalFD *ast.FuncDecl) {
	fnObj, ok := pass.Pkg.Info.Defs[evalFD.Name].(*types.Func)
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
	sensObj, _, _ := types.LookupFieldOrMethod(recvT, true, pass.Pkg.Types, "Sensitivity")
	sensFn, ok := sensObj.(*types.Func)
	if !ok {
		return // no declaration: kernel falls back to ReadsAll at runtime
	}
	if ssig, ok := sensFn.Type().(*types.Signature); !ok ||
		ssig.Params().Len() != 0 || ssig.Results().Len() != 1 ||
		!isSimType(ssig.Results().At(0).Type(), "Sensitivity") {
		return // same-named method of a different shape
	}

	recvName := typeName
	if len(evalFD.Recv.List) > 0 && len(evalFD.Recv.List[0].Names) > 0 {
		recvName = evalFD.Recv.List[0].Names[0].Name
	}

	decl := declaredSensOf(pass.Loader, sensFn, pathset{}.add(":recv", evalFD.Pos()), 0)
	if decl.unresolved {
		pass.Report(evalFD.Pos(),
			"cannot determine the Sensitivity declaration of %s statically; simplify Sensitivity or declare ReadsAll", typeName)
		return
	}
	if decl.readsAll {
		return // conservatively declared; nothing to audit
	}

	sc := &scan{ld: pass.Loader}
	sc.scanFunc(pass.Pkg, evalFD, pathset{}.add(":recv", evalFD.Pos()), nil)

	for _, u := range sc.unresolved {
		pass.Report(clampPos(pass.Pkg, u.pos, evalFD),
			"cannot statically resolve call to %s reached from Eval of %s; declare ReadsAll or waive with //lint:sensaudit <reason>", u.what, typeName)
	}

	allowedRead := pathset{}.union(decl.reads).union(decl.drives)
	for _, p := range sortedPaths(sc.reads) {
		if _, ok := allowedRead[p]; !ok {
			pass.Report(clampPos(pass.Pkg, sc.reads[p], evalFD),
				"Eval of %s reads %s, which is not in its declared Reads or Drives: the scheduler will not wake %s when it changes (missed wakeup)",
				typeName, renderPath(p, recvName), typeName)
		}
	}
	for _, p := range sortedPaths(sc.drives) {
		if _, ok := decl.drives[p]; !ok {
			pass.Report(clampPos(pass.Pkg, sc.drives[p], evalFD),
				"Eval of %s drives %s, which is not in its declared Drives: a hidden writer can change it under a module that re-reads it as its own output",
				typeName, renderPath(p, recvName))
		}
	}

	// Dead declarations are only provable when the whole Eval (and Tick, for
	// drives latched at the clock edge) was resolved.
	if len(sc.unresolved) > 0 {
		return
	}
	tickDrives := tickDriveSet(pass, recvT)
	for _, p := range sortedPaths(decl.reads) {
		if _, ok := sc.reads[p]; !ok {
			pass.Report(decl.reads[p],
				"%s declares a Read of %s that Eval never reads (dead declaration: spurious wakeups)",
				typeName, renderPath(p, recvName))
		}
	}
	for _, p := range sortedPaths(decl.drives) {
		_, inEval := sc.drives[p]
		_, inEvalRead := sc.reads[p] // declared drive legitimately read back
		_, inTick := tickDrives[p]
		if !inEval && !inTick && !inEvalRead {
			pass.Report(decl.drives[p],
				"%s declares a Drive of %s that neither Eval nor Tick ever drives (dead declaration)",
				typeName, renderPath(p, recvName))
		}
	}
}

// tickDriveSet scans the receiver type's Tick method (if any) for signal
// drives, so Drives declared for clock-edge stores are not reported dead.
func tickDriveSet(pass *Pass, recvT types.Type) pathset {
	tickObj, _, _ := types.LookupFieldOrMethod(recvT, true, pass.Pkg.Types, "Tick")
	tickFn, ok := tickObj.(*types.Func)
	if !ok {
		return nil
	}
	dpkg, fd := pass.Loader.FuncDecl(tickFn)
	if fd == nil || fd.Body == nil {
		return nil
	}
	sc := &scan{ld: pass.Loader}
	sc.scanFunc(dpkg, fd, pathset{}.add(":recv", fd.Pos()), nil)
	return sc.drives
}

// clampPos keeps diagnostic anchors inside the audited package: an access
// that happens inside an expanded helper in another package is reported at
// the Eval declaration instead, where a //lint waiver can reach it.
func clampPos(pkg *Package, pos token.Pos, fallback *ast.FuncDecl) token.Pos {
	name := pkg.Fset.Position(pos).Filename
	for _, f := range pkg.Files {
		if pkg.Fset.Position(f.Pos()).Filename == name {
			return pos
		}
	}
	return fallback.Pos()
}

func sortedPaths(ps pathset) []string {
	out := make([]string, 0, len(ps))
	for p := range ps {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// declSens is the statically evaluated value of a Sensitivity() method.
type declSens struct {
	readsAll   bool
	unresolved bool
	reads      pathset
	drives     pathset
}

func (d *declSens) merge(o declSens) {
	d.readsAll = d.readsAll || o.readsAll
	d.unresolved = d.unresolved || o.unresolved
	d.reads = d.reads.union(o.reads)
	d.drives = d.drives.union(o.drives)
}

// declaredSensOf evaluates a Sensitivity method (or a helper returning
// Sensitivity, such as sim.ReadsEverything) to its declared signal sets,
// unioning over every return path.
func declaredSensOf(ld *Loader, fn *types.Func, recvPaths pathset, depth int) declSens {
	if depth > 4 {
		return declSens{unresolved: true}
	}
	dpkg, fd := ld.FuncDecl(fn)
	if fd == nil || fd.Body == nil {
		return declSens{unresolved: true}
	}
	sc := &scan{ld: ld}
	fr := newFrame(dpkg, 1)
	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		fr.bind(dpkg.Info.Defs[fd.Recv.List[0].Names[0]], recvPaths)
	}
	var out declSens
	var walk func(stmts []ast.Stmt)
	walk = func(stmts []ast.Stmt) {
		for _, s := range stmts {
			switch st := s.(type) {
			case *ast.ReturnStmt:
				if len(st.Results) == 1 {
					out.merge(sensValue(ld, sc, fr, st.Results[0], depth))
				} else {
					out.unresolved = true
				}
			case *ast.AssignStmt:
				sc.assign(fr, st)
			case *ast.IfStmt:
				if st.Init != nil {
					walk([]ast.Stmt{st.Init})
				}
				sc.expr(fr, st.Cond)
				walk(st.Body.List)
				if st.Else != nil {
					walk([]ast.Stmt{st.Else})
				}
			case *ast.BlockStmt:
				walk(st.List)
			case *ast.SwitchStmt:
				for _, c := range st.Body.List {
					if cc, ok := c.(*ast.CaseClause); ok {
						walk(cc.Body)
					}
				}
			case *ast.DeclStmt:
				sc.stmt(fr, st)
			default:
				// A statement shape the declaration evaluator does not
				// model: the declaration may depend on it.
				out.unresolved = true
			}
		}
	}
	walk(fd.Body.List)
	return out
}

// sensValue evaluates one expression of type sim.Sensitivity.
func sensValue(ld *Loader, sc *scan, fr *frame, e ast.Expr, depth int) declSens {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	switch x := e.(type) {
	case *ast.CompositeLit:
		return sensLiteral(sc, fr, x)
	case *ast.CallExpr:
		fun := ast.Unparen(x.Fun)
		var fn *types.Func
		recvPaths := pathset{}
		switch f := fun.(type) {
		case *ast.Ident:
			fn, _ = fr.pkg.Info.Uses[f].(*types.Func)
		case *ast.SelectorExpr:
			if sel, ok := fr.pkg.Info.Selections[f]; ok && sel.Kind() == types.MethodVal {
				fn, _ = sel.Obj().(*types.Func)
				recvPaths = recvPaths.union(sc.expr(fr, f.X))
			} else {
				fn, _ = fr.pkg.Info.Uses[f.Sel].(*types.Func)
			}
		}
		if fn == nil {
			return declSens{unresolved: true}
		}
		return declaredSensOf(ld, fn, recvPaths, depth+1)
	}
	return declSens{unresolved: true}
}

// sensLiteral evaluates a Sensitivity{...} composite literal.
func sensLiteral(sc *scan, fr *frame, lit *ast.CompositeLit) declSens {
	tv, ok := fr.pkg.Info.Types[lit]
	if !ok || !isSimType(tv.Type, "Sensitivity") {
		return declSens{unresolved: true}
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	if !ok {
		return declSens{unresolved: true}
	}
	var out declSens
	fieldVal := func(name string, v ast.Expr) {
		switch name {
		case "ReadsAll":
			cv := fr.pkg.Info.Types[v].Value
			if cv == nil || cv.Kind() != constant.Bool {
				out.readsAll = true // non-constant: assume the safe answer
			} else if constant.BoolVal(cv) {
				out.readsAll = true
			}
		case "Reads":
			out.reads = out.reads.union(sc.expr(fr, v))
		case "Drives":
			out.drives = out.drives.union(sc.expr(fr, v))
		default:
			out.unresolved = true
		}
	}
	for i, el := range lit.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				out.unresolved = true
				continue
			}
			fieldVal(key.Name, kv.Value)
			continue
		}
		if i < st.NumFields() {
			fieldVal(st.Field(i).Name(), el)
		} else {
			out.unresolved = true
		}
	}
	return out
}
