package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"copier/internal/lint"
)

// These tests pin the command contract scripts build on: exit code 0
// on a clean tree, 1 when findings remain, 2 when the run itself
// fails; findings printed one per line in (file, line, column, rule)
// order so output is byte-stable run over run.

func runVet(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = vetMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitCleanIsZero(t *testing.T) {
	// The command's own package is part of the always-clean tree.
	code, stdout, stderr := runVet(t, ".")
	if code != 0 {
		t.Fatalf("exit = %d on clean package, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("clean run printed findings:\n%s", stdout)
	}
}

func TestExitFindingsIsOne(t *testing.T) {
	code, stdout, stderr := runVet(t, "./testdata/src/broken")
	if code != 1 {
		t.Fatalf("exit = %d on broken corpus, want 1\nstderr:\n%s", code, stderr)
	}
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	if len(lines) < 4 {
		t.Fatalf("want >= 4 findings (unit-conv x2, unit-mix, suppress-bare), got %d:\n%s", len(lines), stdout)
	}
	// Every line carries position, rule and a fix hint.
	lineRE := regexp.MustCompile(`^[^:]+:\d+:\d+: [a-z-]+: .+ \(fix: .+\)$`)
	for _, l := range lines {
		if !lineRE.MatchString(l) {
			t.Errorf("malformed finding line: %q", l)
		}
	}
	for _, want := range []string{"unit-conv", "unit-mix", "suppress-bare"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("missing %s finding in output:\n%s", want, stdout)
		}
	}
	if !strings.Contains(stderr, "finding(s):") {
		t.Errorf("missing per-rule summary on stderr: %q", stderr)
	}
	// Output is sorted by (file, line, col, rule).
	if !sort.SliceIsSorted(lines, func(i, j int) bool { return findingLess(t, lines[i], lines[j]) }) {
		t.Errorf("findings not sorted:\n%s", stdout)
	}
}

// findingLess orders two formatted finding lines the way SortFindings
// promises to.
func findingLess(t *testing.T, a, b string) bool {
	t.Helper()
	re := regexp.MustCompile(`^([^:]+):(\d+):(\d+): ([a-z-]+):`)
	ma, mb := re.FindStringSubmatch(a), re.FindStringSubmatch(b)
	if ma == nil || mb == nil {
		t.Fatalf("unparseable finding line: %q / %q", a, b)
	}
	if ma[1] != mb[1] {
		return ma[1] < mb[1]
	}
	if ma[2] != mb[2] {
		return len(ma[2]) < len(mb[2]) || (len(ma[2]) == len(mb[2]) && ma[2] < mb[2])
	}
	if ma[3] != mb[3] {
		return len(ma[3]) < len(mb[3]) || (len(ma[3]) == len(mb[3]) && ma[3] < mb[3])
	}
	return ma[4] < mb[4]
}

// TestJSONOutput pins the -json contract: one array of
// {file,line,col,rule,msg,hint} records in the same sorted order as
// the text format, with the same exit codes.
func TestJSONOutput(t *testing.T) {
	code, stdout, _ := runVet(t, "-json", "./testdata/src/broken")
	if code != 1 {
		t.Fatalf("exit = %d on broken corpus, want 1", code)
	}
	var recs []struct {
		File string `json:"file"`
		Line int    `json:"line"`
		Col  int    `json:"col"`
		Rule string `json:"rule"`
		Msg  string `json:"msg"`
		Hint string `json:"hint"`
	}
	if err := json.Unmarshal([]byte(stdout), &recs); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, stdout)
	}
	if len(recs) < 4 {
		t.Fatalf("want >= 4 findings, got %d", len(recs))
	}
	for i, r := range recs {
		if r.File == "" || r.Line <= 0 || r.Col <= 0 || r.Rule == "" || r.Msg == "" {
			t.Errorf("record %d incomplete: %+v", i, r)
		}
	}
	// Same findings, same order as the text stream.
	_, text, _ := runVet(t, "./testdata/src/broken")
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) != len(recs) {
		t.Fatalf("json has %d records, text has %d lines", len(recs), len(lines))
	}
	for i, r := range recs {
		prefix := fmt.Sprintf("%s:%d:%d: %s: ", r.File, r.Line, r.Col, r.Rule)
		if !strings.HasPrefix(lines[i], prefix) {
			t.Errorf("record %d (%s) does not match text line %q", i, prefix, lines[i])
		}
	}
	// A clean package still emits a (possibly empty) array.
	code, stdout, _ = runVet(t, "-json", ".")
	if code != 0 {
		t.Fatalf("exit = %d on clean package, want 0", code)
	}
	if strings.TrimSpace(stdout) != "[]" {
		t.Errorf("clean -json run should print an empty array, got %q", stdout)
	}
}

func TestExitLoadErrorIsTwo(t *testing.T) {
	// Outside any module the loader cannot even start.
	tmp := t.TempDir()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(tmp); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd)
	code, _, stderr := runVet(t)
	if code != 2 {
		t.Fatalf("exit = %d outside a module, want 2\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "copiervet:") {
		t.Errorf("missing error message on stderr: %q", stderr)
	}
}

func TestExitBadUsageIsTwo(t *testing.T) {
	if code, _, _ := runVet(t, "-rules", "no-such-rule"); code != 2 {
		t.Errorf("unknown rule: exit = %d, want 2", code)
	}
	if code, _, _ := runVet(t, "-no-such-flag"); code != 2 {
		t.Errorf("bad flag: exit = %d, want 2", code)
	}
}

func TestListPrintsAllRules(t *testing.T) {
	code, stdout, _ := runVet(t, "-list")
	if code != 0 {
		t.Fatalf("-list: exit = %d, want 0", code)
	}
	for _, r := range lint.AllRules {
		if !strings.Contains(stdout, r+"\n") {
			t.Errorf("-list output missing rule %s", r)
		}
	}
}

func TestVerboseTimings(t *testing.T) {
	code, _, stderr := runVet(t, "-v", ".")
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr:\n%s", code, stderr)
	}
	// The registry is exactly these analyzers, in execution order, so a
	// dropped or reordered analyzer fails here; -v reports the shared
	// load once and then one phase per registry entry.
	var names []string
	for _, a := range lint.Analyzers {
		names = append(names, a.Name)
	}
	const want = "detlint cyclelint unitlint lifelint ordlint alloclint"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("registry = %q, want %q", got, want)
	}
	for _, phase := range append([]string{"load"}, names...) {
		if !strings.Contains(stderr, "copiervet: "+phase+" ") {
			t.Errorf("-v output missing phase %q:\n%s", phase, stderr)
		}
	}
	if strings.Count(stderr, "load") != 1 {
		t.Errorf("load phase should appear exactly once (shared across analyzers):\n%s", stderr)
	}
}
