package lint

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The golden corpus lives in compilable snippet packages under
// testdata/src (the loader builds real export data for them, so the
// analyzers run with full type information, exactly as on the real
// tree). Each test runs the full driver over one corpus and compares
// the formatted findings against a golden file.
//
// Regenerate with: go test ./internal/lint -run Golden -update

var update = flag.Bool("update", false, "rewrite golden files")

// snipConfig is the CycleConfig pointing cyclelint at the stand-in
// packages of the cyclesnip corpus.
var snipConfig = CycleConfig{
	CyclesPath: "copier/internal/lint/testdata/src/cyclesnip/costs",
	TimePkg:    "copier/internal/lint/testdata/src/cyclesnip/simx",
	TimeName:   "Time",
}

func runGolden(t *testing.T, goldenName string, opts Options) {
	t.Helper()
	res, in, err := run(opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkConverged(t, in)
	if res.TypeErrorCount != 0 {
		t.Errorf("corpus has %d package(s) with type errors; snippets must compile", res.TypeErrorCount)
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, f := range res.Findings {
		f.Pos.Filename = filepath.ToSlash(RelPath(cwd, f.Pos.Filename))
		fmt.Fprintln(&buf, f.String())
	}

	goldenPath := filepath.Join("testdata", goldenName)
	if *update {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("findings diverge from %s\n--- got ---\n%s--- want ---\n%s", goldenPath, buf.String(), want)
	}
}

func TestDetlintGolden(t *testing.T) {
	runGolden(t, "detsnip.golden", Options{
		Dir:       ".",
		Patterns:  []string{"./testdata/src/detsnip"},
		DomainAll: true,
	})
}

func TestCyclelintGolden(t *testing.T) {
	runGolden(t, "cyclesnip.golden", Options{
		Dir: ".",
		Patterns: []string{
			"./testdata/src/cyclesnip",
			"./testdata/src/cyclesnip/costs",
			"./testdata/src/cyclesnip/simx",
		},
		Cycles:    snipConfig,
		DomainAll: true,
	})
}

// snipUnits points unitlint at the stand-in dimension types of the
// unitsnip corpus.
var snipUnits = UnitConfig{
	Dims: map[string]string{
		"copier/internal/lint/testdata/src/unitsnip/unitsx.Bytes": "unitsx.Bytes",
		"copier/internal/lint/testdata/src/unitsnip/unitsx.Pages": "unitsx.Pages",
		"copier/internal/lint/testdata/src/unitsnip/simx.Time":    "simx.Time",
	},
	Exempt: []string{"copier/internal/lint/testdata/src/unitsnip/unitsx"},
}

func TestUnitlintGolden(t *testing.T) {
	runGolden(t, "unitsnip.golden", Options{
		Dir: ".",
		Patterns: []string{
			"./testdata/src/unitsnip",
			"./testdata/src/unitsnip/unitsx",
			"./testdata/src/unitsnip/simx",
		},
		Units: snipUnits,
	})
}

func TestAtomiclintGolden(t *testing.T) {
	runGolden(t, "atomicsnip.golden", Options{
		Dir:      ".",
		Patterns: []string{"./testdata/src/atomicsnip"},
		Atomic:   AtomicConfig{Packages: []string{"copier/internal/lint/testdata/src/atomicsnip"}},
	})
}

func TestAlloclintGolden(t *testing.T) {
	runGolden(t, "allocsnip.golden", Options{
		Dir:       ".",
		Patterns:  []string{"./testdata/src/allocsnip"},
		DomainAll: true,
	})
}

// TestLifelintGolden runs the lifecycle typestate checker over its
// corpus: the specs live as //copier:lifecycle annotations inside the
// resx stand-in package, exactly as the real ones do in acopy and mem.
func TestLifelintGolden(t *testing.T) {
	runGolden(t, "lifesnip.golden", Options{
		Dir: ".",
		Patterns: []string{
			"./testdata/src/lifesnip",
			"./testdata/src/lifesnip/resx",
		},
	})
}

// TestOrdlintGolden runs the happens-before publication checker over
// its corpus: the //copier:ordered contract lives inside the snippet
// package, exactly as the real one does in acopy.
func TestOrdlintGolden(t *testing.T) {
	runGolden(t, "ordsnip.golden", Options{
		Dir:      ".",
		Patterns: []string{"./testdata/src/ordsnip"},
		Ord:      OrdConfig{Packages: []string{"copier/internal/lint/testdata/src/ordsnip"}},
	})
}

// checkConverged fails the test if a flow analyzer's summary or loop
// fixpoint stopped at its cap instead of settling: the summaries would
// be unsound with no finding to say so.
func checkConverged(t *testing.T, in *runInput) {
	t.Helper()
	for name, st := range map[string]flowStats{"lifelint": in.life, "ordlint": in.ord} {
		if !st.converged() {
			t.Errorf("%s did not converge: %+v", name, st)
		}
	}
}

// TestTreeIsClean is the acceptance criterion in executable form:
// the real tree must produce zero findings from all seven analyzers —
// detlint, alloclint, cyclelint, unitlint, atomiclint, lifelint and
// ordlint run under their default configurations (every violation
// fixed or carrying a justified, used suppression) — and the flow
// analyzers' fixpoints must settle before their caps.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and escape-compiles the whole module")
	}
	res, in, err := run(Options{Dir: "../.."})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, f := range res.Findings {
		t.Errorf("%s", f.String())
	}
	checkConverged(t, in)
	t.Logf("summary rounds: lifelint %d, ordlint %d (cap %d)", in.life.rounds, in.ord.rounds, flowRoundCap)
	if in.life.rounds < 2 || in.ord.rounds < 2 {
		t.Error("a flow analyzer settled in one round: the load is missing the governed packages")
	}
}

// TestFlowDriverReportsUnsettled pins the convergence report itself: a
// summary that changes every round runs to the cap and is flagged.
func TestFlowDriverReportsUnsettled(t *testing.T) {
	var st flowStats
	n := 0
	flowSummaries([]flowFunc{{key: "f"}}, map[string]int{}, &st, func(*flowFunc, *[]Finding) int {
		n++
		return n
	})
	if st.converged() || st.rounds != flowRoundCap {
		t.Errorf("stats %+v, want unsettled after %d rounds", st, flowRoundCap)
	}
}
