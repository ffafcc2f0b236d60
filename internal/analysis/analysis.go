// Package analysis is vidi-lint's analyzer suite: a small, dependency-free
// reimplementation of the golang.org/x/tools/go/analysis surface (Analyzer,
// Pass, Diagnostic) plus the two vidi-specific analyzers, sensaudit and
// handshake. The container this repo builds in has no module proxy access,
// so the framework is built on the standard library only: packages are
// loaded through `go list -export` and typechecked with the stdlib gc
// importer (see load.go).
//
// Waivers: a diagnostic is suppressed by a `//lint:<analyzer> <reason>`
// comment either on the diagnosed line (or the line above it) or in the doc
// comment of the enclosing function declaration. The reason is mandatory —
// a bare waiver is itself reported — so every suppression documents why the
// code is exempt, mirroring staticcheck's `//lint:ignore` convention.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one static check, mirroring x/tools' analysis.Analyzer.
type Analyzer struct {
	// Name is the analyzer's identifier, used in reports and waivers.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run performs the check over one package, reporting via pass.Report.
	Run func(pass *Pass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Loader resolves cross-package function bodies for the interprocedural
	// signal scan.
	Loader *Loader

	diags []Diagnostic
}

// Report records a diagnostic.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// All returns the analyzers of the suite, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{SensAudit, Handshake, DetAudit}
}

// Run executes the analyzers over every target package of the loader and
// returns the surviving diagnostics (waivers applied) stably sorted by
// (file, line, analyzer, message) and deduplicated: a multi-package load
// (e.g. a package and its _test.go variant, which recompiles the same
// non-test files) reports each finding once. Waiver diagnostics for
// reason-less waivers are included.
func Run(ld *Loader, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range ld.Targets() {
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, Loader: ld}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
			out = append(out, applyWaivers(pkg, a.Name, pass.diags)...)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := ld.Fset.Position(out[i].Pos), ld.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if out[i].Analyzer != out[j].Analyzer {
			return out[i].Analyzer < out[j].Analyzer
		}
		return out[i].Message < out[j].Message
	})
	// Identical findings from distinct package variants differ only in
	// token.Pos (each parse gets fresh positions), so compare rendered
	// positions.
	dedup := out[:0]
	for i, d := range out {
		if i > 0 {
			prev := out[i-1]
			if d.Analyzer == prev.Analyzer && d.Message == prev.Message &&
				samePosition(ld.Fset.Position(d.Pos), ld.Fset.Position(prev.Pos)) {
				continue
			}
		}
		dedup = append(dedup, d)
	}
	return dedup, nil
}

func samePosition(a, b token.Position) bool {
	return a.Filename == b.Filename && a.Line == b.Line && a.Column == b.Column
}

// WaiverRecord is one `//lint:<analyzer> <reason>` directive, for the
// waiver inventory (vidi-lint -waivers).
type WaiverRecord struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Reason   string `json:"reason"`
}

// Waivers inventories every waiver directive for the given analyzers across
// the loader's target packages, sorted by (file, line, analyzer) and
// deduplicated across package variants. Reason-less waivers are included
// (with an empty Reason) so the inventory surfaces them too.
func Waivers(ld *Loader, analyzers []*Analyzer) []WaiverRecord {
	var out []WaiverRecord
	for _, pkg := range ld.Targets() {
		for _, a := range analyzers {
			for _, w := range collectWaivers(pkg, a.Name) {
				out = append(out, WaiverRecord{
					File:     w.file,
					Line:     w.line,
					Analyzer: a.Name,
					Reason:   w.reason,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	dedup := out[:0]
	for i, w := range out {
		if i > 0 && w == out[i-1] {
			continue
		}
		dedup = append(dedup, w)
	}
	return dedup
}

// waiver is one parsed `//lint:<analyzer> <reason>` directive.
type waiver struct {
	file   string
	line   int
	pos    token.Pos
	reason string
	fn     *ast.FuncDecl // non-nil when the waiver sits in a func doc comment
}

// collectWaivers finds the directives for one analyzer in one package.
func collectWaivers(pkg *Package, analyzer string) []waiver {
	prefix := "//lint:" + analyzer
	var ws []waiver
	for _, f := range pkg.Files {
		// Map doc comments to their function declarations so a waiver on a
		// method suppresses findings anywhere in its body.
		docOwner := map[*ast.CommentGroup]*ast.FuncDecl{}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Doc != nil {
				docOwner[fd.Doc] = fd
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, prefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, prefix)
				if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
					continue // e.g. //lint:sensaudit2 — not this analyzer
				}
				cp := pkg.Fset.Position(c.Pos())
				ws = append(ws, waiver{
					file:   cp.Filename,
					line:   cp.Line,
					pos:    c.Pos(),
					reason: strings.TrimSpace(rest),
					fn:     docOwner[cg],
				})
			}
		}
	}
	return ws
}

// applyWaivers suppresses diagnostics covered by a waiver directive and
// reports malformed (reason-less) waivers.
func applyWaivers(pkg *Package, analyzer string, diags []Diagnostic) []Diagnostic {
	ws := collectWaivers(pkg, analyzer)
	if len(ws) == 0 {
		return diags
	}
	var out []Diagnostic
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		waived := false
		for i := range ws {
			w := &ws[i]
			if w.reason == "" {
				continue // malformed; reported below, suppresses nothing
			}
			if w.fn != nil && w.fn.Body != nil &&
				d.Pos >= w.fn.Pos() && d.Pos <= w.fn.End() {
				waived = true
				break
			}
			if w.fn == nil && pos.Filename == w.file &&
				(pos.Line == w.line || pos.Line == w.line+1) {
				waived = true
				break
			}
		}
		if !waived {
			out = append(out, d)
		}
	}
	for _, w := range ws {
		if w.reason == "" {
			out = append(out, Diagnostic{
				Pos:      w.pos,
				Message:  fmt.Sprintf("waiver //lint:%s is missing a reason", analyzer),
				Analyzer: analyzer,
			})
		}
	}
	return out
}
