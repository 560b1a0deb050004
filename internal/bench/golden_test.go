package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"copier/internal/obs"
	"copier/internal/sim"
)

// The output goldens are the simulator's behaviour contract. Every
// registered experiment runs once at Quick scale with one recorder
// attached to each environment it builds; its printed tables, the
// recorder's text summary (WriteSummary) and the sha256 of its
// Perfetto export must match testdata/golden/<id>.txt byte for byte.
// A refactor that changes results deterministically fails here, not
// only one that breaks repeatability.
//
// The parallelizable experiments run a second time on 4 host workers
// and must match the same file: the conservative-lookahead windows
// (sim.ShardSet) and the job pool (sim.RunJobs) may change wall clock,
// never bytes.
//
// Regenerate with: go test ./internal/bench -run TestGoldens -update

var update = flag.Bool("update", false, "rewrite golden files")

// parallelizable lists the experiments whose cells run through
// sim.RunJobs or sim.ShardSet (the ones SetWorkers affects).
var parallelizable = map[string]bool{
	"fig9": true, "fig12b": true, "chaos": true,
	"fleet": true, "fleetpar": true, "chaosfleet": true,
}

// goldenChecks holds the semantic assertions run on an experiment's
// single traced run. The golden pins the bytes; these guard what an
// -update must never regenerate away.
var goldenChecks = map[string]func(t *testing.T, tables string, rec *obs.Recorder){
	"fig9":  checkEveryLayer,
	"chaos": checkChaosLifecycle,
}

func TestGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, e := range Experiments() {
		id := e.ID
		t.Run(id, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", id+".txt")
			tables, export, rec := runTraced(t, id)
			got := goldenText(tables, export, rec)
			if !json.Valid(export) {
				t.Fatal("Perfetto export is not valid JSON")
			}
			if check := goldenChecks[id]; check != nil {
				check(t, tables, rec)
			}
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			} else {
				compareGolden(t, path, got)
			}
			if !parallelizable[id] {
				return
			}
			t.Run("workers4", func(t *testing.T) {
				SetWorkers(4)
				defer SetWorkers(1)
				tables, export, rec := runTraced(t, id)
				compareGolden(t, path, goldenText(tables, export, rec))
			})
		})
	}
}

// runTraced runs one experiment at Quick scale with a fresh recorder
// attached to every simulation environment the experiment creates,
// returning the printed tables, the Perfetto export, and the recorder.
func runTraced(t *testing.T, id string) (string, []byte, *obs.Recorder) {
	t.Helper()
	rec := obs.NewRecorder(obs.DefaultRingCap)
	prev := sim.OnNewEnv
	sim.OnNewEnv = func(e *sim.Env) { e.SetRecorder(rec) }
	defer func() { sim.OnNewEnv = prev }()

	e, ok := ByID(id)
	if !ok {
		t.Fatalf("%s not registered", id)
	}
	var tbl strings.Builder
	for _, table := range e.Run(Quick) {
		table.Fprint(&tbl)
	}
	var export bytes.Buffer
	if err := rec.WritePerfetto(&export); err != nil {
		t.Fatal(err)
	}
	return tbl.String(), export.Bytes(), rec
}

// goldenText renders one run the way the golden file stores it: the
// tables, the obs summary, then the export's digest (the export itself
// runs to megabytes).
func goldenText(tables string, export []byte, rec *obs.Recorder) []byte {
	var b bytes.Buffer
	b.WriteString(tables)
	if err := rec.WriteSummary(&b); err != nil {
		panic(err)
	}
	fmt.Fprintf(&b, "perfetto export: %d bytes, sha256 %x\n", len(export), sha256.Sum256(export))
	return b.Bytes()
}

func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output diverges from %s:\n%s", path, lineDiff(string(want), string(got)))
	}
}

// checkEveryLayer: fig9 drives the whole stack, so its trace must hold
// events from the sim, core, hw and kernel layers.
func checkEveryLayer(t *testing.T, _ string, rec *obs.Recorder) {
	for l := obs.LayerSim; l < obs.Layer(4); l++ {
		if rec.LayerCount(l) == 0 {
			t.Errorf("no events recorded from layer %s", l)
		}
	}
}

// checkChaosLifecycle: the chaos trace must show the whole failure
// lifecycle — injected faults, granted retries, cooldown fallbacks and
// the client teardown — and at least one task that was retried and
// then completed (a retry that succeeded, not only retries that gave
// up). No survivor's data may be corrupt.
func checkChaosLifecycle(t *testing.T, tables string, rec *obs.Recorder) {
	if strings.Contains(tables, "CORRUPT") {
		t.Error("chaos run reported corrupted data")
	}
	for _, k := range []obs.EventKind{obs.EvFaultInjected, obs.EvTaskRetry,
		obs.EvEngineFallback, obs.EvClientTeardown} {
		if rec.CountOf(k) == 0 {
			t.Errorf("no %s events in the chaos trace", k)
		}
	}
	retried := map[int64]bool{}
	completed := map[int64]bool{}
	rec.Events(func(e *obs.Event) {
		switch e.Kind {
		case obs.EvTaskRetry:
			retried[e.A] = true
		case obs.EvTaskComplete:
			completed[e.A] = true
		}
	})
	for id := range retried {
		if completed[id] {
			return
		}
	}
	t.Error("no task in the trace was retried and then completed")
}

// lineDiff renders the first few differing lines of want and got.
func lineDiff(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	n := len(wl)
	if len(gl) > n {
		n = len(gl)
	}
	var sb strings.Builder
	shown := 0
	for i := 0; i < n && shown < 5; i++ {
		var wv, gv string
		if i < len(wl) {
			wv = wl[i]
		}
		if i < len(gl) {
			gv = gl[i]
		}
		if wv == gv {
			continue
		}
		const clip = 160
		if len(wv) > clip {
			wv = wv[:clip] + "..."
		}
		if len(gv) > clip {
			gv = gv[:clip] + "..."
		}
		fmt.Fprintf(&sb, "line %d:\n  want: %s\n  got:  %s\n", i+1, wv, gv)
		shown++
	}
	if sb.Len() == 0 {
		return "(no line-level diff; outputs differ in length or trailing bytes)"
	}
	return sb.String()
}
