package bench

import (
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"copier/internal/units"
)

// The full-scale command is written out twice, in EXPERIMENTS.md's
// "Reproducing" section and in scripts/check.sh's last stage, and
// must run every registered experiment but fig12b, whose 16-thread
// proxy point never completes at -full. An experiment added to or
// deleted from the registry but not from both lists would otherwise
// leave the documented command, the gate, or both, without a word.
func TestFullScaleListsNameEveryExperiment(t *testing.T) {
	var want []string
	for _, e := range Experiments() {
		if e.ID != "fig12b" {
			want = append(want, e.ID)
		}
	}
	fullRun := regexp.MustCompile(`copierbench -full[\s\\]+-run ([\w,]+)`)
	for _, path := range []string{"../../EXPERIMENTS.md", "../../scripts/check.sh"} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m := fullRun.FindAllSubmatch(b, -1)
		if len(m) != 1 {
			t.Fatalf("%s: %d `copierbench -full -run` commands, want 1", path, len(m))
		}
		got := strings.Split(string(m[0][1]), ",")
		sort.Strings(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s runs %v at -full, want every experiment but fig12b: %v", path, got, want)
		}
	}
}

// Simulated experiments run end to end at Quick scale. The heavier
// sweeps (fig9/fig10/fig11/fig12/fig14) are exercised by
// cmd/copierbench and the root benchmarks; this keeps `go test` fast
// while covering each driver family.
func TestSimulatedExperimentsSmoke(t *testing.T) {
	ids := []string{"binder", "cow", "sendfile", "isolation", "fig13b", "zlib", "fig13c"}
	if testing.Short() {
		ids = ids[:2]
	}
	for _, id := range ids {
		id := id
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("unknown %q", id)
			}
			for _, tbl := range e.Run(Quick) {
				if len(tbl.Rows) == 0 {
					t.Fatalf("%s: empty table", id)
				}
				var buf strings.Builder
				tbl.Fprint(&buf)
				if !strings.Contains(buf.String(), tbl.ID) {
					t.Fatalf("%s: render missing id", id)
				}
			}
		})
	}
}

// The isolation experiment's ratios must track the share ratios.
func TestIsolationProportional(t *testing.T) {
	a, b := isolationRun(300, 100)
	if a == 0 || b == 0 {
		t.Fatal("starvation under shares")
	}
	ratio := float64(a) / float64(b)
	if ratio < 2.2 || ratio > 4.0 {
		t.Fatalf("3:1 shares gave ratio %.2f", ratio)
	}
}

// The CoW experiment's 2MB row must show a substantial reduction and
// the 4KB row must be near-neutral (paper: -71.8% / -8.0%).
func TestCoWNumbers(t *testing.T) {
	base2M := cowBlocked(512, false)
	cop2M := cowBlocked(512, true)
	if red := 1 - float64(cop2M)/float64(base2M); red < 0.4 {
		t.Fatalf("2MB reduction %.2f", red)
	}
	base4K := cowBlocked(1, false)
	cop4K := cowBlocked(1, true)
	if r := float64(cop4K) / float64(base4K); r < 0.5 || r > 1.5 {
		t.Fatalf("4KB ratio %.2f", r)
	}
}

// Sendfile ordering: read+send > sendfile > sendfile+Copier.
func TestSendfileOrdering(t *testing.T) {
	n := units.Bytes(64 << 10)
	rs := fileSendLatency(n, 0)
	sf := fileSendLatency(n, 1)
	sfc := fileSendLatency(n, 2)
	if !(rs > sf && sf > sfc) {
		t.Fatalf("ordering violated: read+send=%d sendfile=%d +copier=%d", rs, sf, sfc)
	}
}
