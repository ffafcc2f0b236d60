package analysis

import (
	"fmt"
	"go/token"
	"strings"
	"testing"
)

// TestRunOutputDeterministic is the satellite regression for vidi-lint's
// output contract: diagnostics come out stably sorted by (file, line,
// analyzer, message), and a multi-package load — here the same files
// compiled as both `dedupfix` and its `[dedupfix.test]` variant — reports
// each finding exactly once.
func TestRunOutputDeterministic(t *testing.T) {
	base, err := NewLoader("testdata/src/dedupfix", ".")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, err := Run(base, []*Analyzer{DetAudit})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "time.Now") {
		t.Fatalf("plain load: got %d diagnostics %v, want the single time.Now finding", len(diags), render(base.Fset, diags))
	}

	ld, err := NewLoaderWithTests("testdata/src/dedupfix", true, ".")
	if err != nil {
		t.Fatalf("load with tests: %v", err)
	}
	if n := len(ld.Targets()); n != 2 {
		t.Fatalf("test load: got %d target packages, want 2 (package + test variant)", n)
	}
	diags, err = Run(ld, []*Analyzer{DetAudit})
	if err != nil {
		t.Fatalf("run with tests: %v", err)
	}
	// The non-test file is compiled into both variants: without dedup the
	// time.Now finding would be doubled. The _test.go rand.Intn finding
	// exists only in the variant.
	var sawClock, sawRand int
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, "time.Now"):
			sawClock++
		case strings.Contains(d.Message, "rand.Intn"):
			sawRand++
		}
	}
	if sawClock != 1 || sawRand != 1 || len(diags) != 2 {
		t.Fatalf("test-variant load: got %v, want exactly one time.Now and one rand.Intn finding",
			render(ld.Fset, diags))
	}
	assertSorted(t, ld.Fset, diags)
}

// TestRunSortKeyIncludesAnalyzer checks the full sort key on a load where
// several analyzers fire across files and lines.
func TestRunSortKeyIncludesAnalyzer(t *testing.T) {
	ld, err := NewLoader("testdata/src", "./detfix", "./handfix", "./sensfix")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, err := Run(ld, All())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	fired := map[string]bool{}
	for _, d := range diags {
		fired[d.Analyzer] = true
	}
	if len(fired) < 3 {
		t.Fatalf("expected findings from every analyzer across the fixtures, got %v", fired)
	}
	assertSorted(t, ld.Fset, diags)
}

func assertSorted(t *testing.T, fset *token.FileSet, diags []Diagnostic) {
	t.Helper()
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		pa, pb := fset.Position(a.Pos), fset.Position(b.Pos)
		ka := [4]string{pa.Filename, pad(pa.Line), a.Analyzer, a.Message}
		kb := [4]string{pb.Filename, pad(pb.Line), b.Analyzer, b.Message}
		if !(less(ka, kb) || ka == kb) {
			t.Errorf("diagnostics out of order:\n  %v:%d %s %s\n  %v:%d %s %s",
				pa.Filename, pa.Line, a.Analyzer, a.Message,
				pb.Filename, pb.Line, b.Analyzer, b.Message)
		}
	}
}

func less(a, b [4]string) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func pad(n int) string { return fmt.Sprintf("%08d", n) }

func render(fset *token.FileSet, diags []Diagnostic) []string {
	out := make([]string, 0, len(diags))
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		out = append(out, pos.String()+" "+d.Analyzer+": "+d.Message)
	}
	return out
}
