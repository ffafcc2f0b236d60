package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles vidi-lint into a temp dir and returns the binary path.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "vidi-lint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build vidi-lint: %v\n%s", err, out)
	}
	return bin
}

func exitCode(t *testing.T, cmd *exec.Cmd) (int, string) {
	t.Helper()
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), string(out)
	}
	t.Fatalf("%v: %v\n%s", cmd.Args, err, out)
	return -1, ""
}

// TestStandaloneExitCodes runs the built binary against a clean package
// (exit 0) and the deliberately-broken sensaudit fixture (exit 1).
func TestStandaloneExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the lint binary; skipped in -short mode")
	}
	bin := buildTool(t)

	clean := exec.Command(bin, "./internal/cliutil")
	clean.Dir = "../.."
	if code, out := exitCode(t, clean); code != 0 {
		t.Errorf("clean package: exit %d, want 0\n%s", code, out)
	}

	dirty := exec.Command(bin, "./internal/analysis/testdata/src/sensfix")
	dirty.Dir = "../.."
	code, out := exitCode(t, dirty)
	if code != 1 {
		t.Errorf("fixture package: exit %d, want 1\n%s", code, out)
	}
	if out == "" {
		t.Error("fixture package: expected diagnostics on stderr, got none")
	}
}

// TestVetTool drives the binary through go vet's -vettool protocol.
func TestVetTool(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the lint binary under go vet; skipped in -short mode")
	}
	bin := buildTool(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./internal/cliutil")
	cmd.Dir = "../.."
	if code, out := exitCode(t, cmd); code != 0 {
		t.Errorf("go vet -vettool: exit %d, want 0\n%s", code, out)
	}
}

// TestJSONOutput checks -json: diagnostics arrive as a parseable array on
// stdout, stably sorted, and the exit code still reflects the findings.
func TestJSONOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the lint binary; skipped in -short mode")
	}
	bin := buildTool(t)

	cmd := exec.Command(bin, "-json", "./internal/analysis/testdata/src/detfix")
	cmd.Dir = "../.."
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("-json over fixture: err %v, want exit 1\nstderr: %s", err, stderr.String())
	}
	var diags []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("-json output is not a diagnostic array: %v\n%s", err, stdout.String())
	}
	if len(diags) == 0 {
		t.Fatal("-json over fixture: no diagnostics decoded")
	}
	for i, d := range diags {
		if d.File == "" || d.Line == 0 || d.Analyzer == "" || d.Message == "" {
			t.Errorf("diagnostic %d has empty fields: %+v", i, d)
		}
		if i > 0 && (diags[i-1].File > d.File || (diags[i-1].File == d.File && diags[i-1].Line > d.Line)) {
			t.Errorf("diagnostics not sorted: %v before %v", diags[i-1], d)
		}
	}
}

// TestWaiverInventory checks -waivers: every //lint: directive is listed
// with its reason (JSON and text), and the mode exits 0 even where the
// analyzers would report findings.
func TestWaiverInventory(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the lint binary; skipped in -short mode")
	}
	bin := buildTool(t)

	cmd := exec.Command(bin, "-waivers", "-json", "./internal/analysis/testdata/src/sensfix")
	cmd.Dir = "../.."
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		t.Fatalf("-waivers -json: %v", err)
	}
	var ws []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
		Reason   string `json:"reason"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &ws); err != nil {
		t.Fatalf("-waivers -json output: %v\n%s", err, stdout.String())
	}
	if len(ws) != 2 {
		t.Fatalf("sensfix inventory: got %d waivers, want 2: %+v", len(ws), ws)
	}
	for _, w := range ws {
		if w.Analyzer != "sensaudit" || w.Reason == "" {
			t.Errorf("unexpected waiver record: %+v", w)
		}
	}

	text := exec.Command(bin, "-waivers", "./internal/analysis/testdata/src/waivefix")
	text.Dir = "../.."
	out, err := text.Output()
	if err != nil {
		t.Fatalf("-waivers text mode: %v", err)
	}
	if !strings.Contains(string(out), "(missing reason)") {
		t.Errorf("bare waiver not surfaced in inventory:\n%s", out)
	}
}

// TestTestsFlag checks -tests: the _test.go variant is analyzed (the
// dedupfix fixture plants a finding only reachable through its test file)
// and shared files are not double-reported.
func TestTestsFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the lint binary; skipped in -short mode")
	}
	bin := buildTool(t)

	cmd := exec.Command(bin, "-tests", "-json", "./internal/analysis/testdata/src/dedupfix")
	cmd.Dir = "../.."
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("-tests over dedupfix: err %v, want exit 1", err)
	}
	var diags []struct {
		Message string `json:"message"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("-tests -json output: %v\n%s", err, stdout.String())
	}
	if len(diags) != 2 {
		t.Fatalf("dedupfix with -tests: got %d diagnostics, want 2 (deduped time.Now + test-only rand.Intn): %+v", len(diags), diags)
	}
}
