// Command vidi-lint runs the vidi analyzer suite (sensaudit, handshake,
// detaudit) over Go packages. It works in two modes:
//
// Standalone, over go-list patterns:
//
//	vidi-lint ./...
//	vidi-lint -analyzers sensaudit ./internal/axi
//	vidi-lint -tests -json ./...
//	vidi-lint -waivers ./...
//
// As a go vet tool, which reuses vet's build-cache-driven package loading:
//
//	go vet -vettool=$(which vidi-lint) ./...
//
// Flags (standalone mode only): -analyzers selects a comma-separated
// subset; -tests additionally analyzes each package's _test.go variant;
// -json emits machine-readable diagnostics on stdout; -waivers inventories
// every `//lint:` directive with its reason instead of running the
// analyzers (combinable with -json, emitted as a CI artifact).
//
// Exit status is 0 when no diagnostics were reported, 1 when findings
// exist, 2 on a loading or internal error. Diagnostics are suppressed by
// `//lint:<analyzer> <reason>` comments on the diagnosed line, the line
// above it, or the enclosing function's doc comment; the reason is
// mandatory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"vidi/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// jsonDiag is the machine-readable diagnostic shape emitted by -json.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run(args []string) int {
	// go vet probes its -vettool with -V=full before handing it .cfg files.
	if len(args) > 0 {
		switch {
		case strings.HasPrefix(args[0], "-V"):
			fmt.Println("vidi-lint version 1")
			return 0
		case args[0] == "-flags":
			fmt.Println("[]")
			return 0
		case strings.HasSuffix(args[0], ".cfg"):
			return runVet(args[0])
		}
	}

	fs := flag.NewFlagSet("vidi-lint", flag.ContinueOnError)
	names := fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	tests := fs.Bool("tests", false, "also analyze each package's _test.go variant")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON on stdout")
	waivers := fs.Bool("waivers", false, "inventory //lint: waivers instead of running the analyzers")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	analyzers, err := selectAnalyzers(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vidi-lint:", err)
		return 2
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vidi-lint:", err)
		return 2
	}
	ld, err := analysis.NewLoaderWithTests(wd, *tests, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vidi-lint:", err)
		return 2
	}

	if *waivers {
		ws := analysis.Waivers(ld, analyzers)
		if *asJSON {
			if ws == nil {
				ws = []analysis.WaiverRecord{}
			}
			if err := writeJSON(ws); err != nil {
				fmt.Fprintln(os.Stderr, "vidi-lint:", err)
				return 2
			}
			return 0
		}
		for _, w := range ws {
			reason := w.Reason
			if reason == "" {
				reason = "(missing reason)"
			}
			fmt.Printf("%s:%d: //lint:%s %s\n", w.File, w.Line, w.Analyzer, reason)
		}
		return 0
	}

	diags, err := analysis.Run(ld, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vidi-lint:", err)
		return 2
	}
	if *asJSON {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			pos := ld.Fset.Position(d.Pos)
			out = append(out, jsonDiag{
				File:     pos.Filename,
				Line:     pos.Line,
				Column:   pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		if err := writeJSON(out); err != nil {
			fmt.Fprintln(os.Stderr, "vidi-lint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: %s (%s)\n", ld.Fset.Position(d.Pos), d.Message, d.Analyzer)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// writeJSON emits v indented on stdout, with empty slices rendered as []
// rather than null.
func writeJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func selectAnalyzers(names string) ([]*analysis.Analyzer, error) {
	if names == "" {
		return analysis.All(), nil
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(names, ",") {
		found := false
		for _, a := range analysis.All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
	}
	return out, nil
}
