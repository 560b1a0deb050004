package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// readReports reads the untraced run reports of a file of -all output,
// one JSON report per line.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace == 0 {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// side is one set's runs of one workload.
type side struct {
	seeds  []uint64
	values map[string][]float64
	exact  map[string]bool
}

func group(rs []report) map[string]*side {
	g := map[string]*side{}
	for _, r := range rs {
		s := g[r.Workload]
		if s == nil {
			s = &side{values: map[string][]float64{}, exact: map[string]bool{}}
			g[r.Workload] = s
		}
		s.seeds = append(s.seeds, r.Seed)
		for _, m := range r.Metrics {
			if m.Value != nil {
				s.values[m.Name] = append(s.values[m.Name], *m.Value)
				s.exact[m.Name] = m.Exact
			}
		}
	}
	return g
}

// compareFiles prints, for each workload and end-to-end metric, both
// sets' median and quartiles and the fraction of (A, B) run pairs that
// B wins, and reports whether the sets agree: every median within the
// metric's bound of the other set's, and every seed-determined metric
// identical when both sets ran the same seeds.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	ra, err := readReports(pathA)
	if err != nil {
		return false, err
	}
	rb, err := readReports(pathB)
	if err != nil {
		return false, err
	}
	ga, gb := group(ra), group(rb)
	names := make([]string, 0, len(ga))
	for k := range ga {
		names = append(names, k)
	}
	sort.Strings(names)
	agree := true
	fmt.Fprintf(w, "%-13s %-17s %27s %27s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "verdict")
	for _, name := range names {
		a, b := ga[name], gb[name]
		if b == nil {
			fmt.Fprintf(w, "%-13s missing from %s\n", name, pathB)
			agree = false
			continue
		}
		sameSeeds := slices.Equal(sorted(a.seeds), sorted(b.seeds))
		for _, d := range endToEnd {
			va, vb := a.values[d.name], b.values[d.name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-13s %-17s unmeasured on one side\n", name, d.name)
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			verdict := "ok"
			switch worse := worsening(d, am, bm); {
			case a.exact[d.name] && b.exact[d.name] && sameSeeds && !slices.Equal(sorted(va), sorted(vb)):
				verdict = "DIFFERS (seed-determined values changed)"
				agree = false
			case math.Abs(worse) > d.bound:
				verdict = fmt.Sprintf("DISAGREE (%+.1f%% worse, bound %.0f%%)", 100*worse, 100*d.bound)
				agree = false
			}
			fmt.Fprintf(w, "%-13s %-17s %27s %27s %6.2f  %s\n", name, d.name,
				spread(am, a1, a3), spread(bm, b1, b3), winFrac(d, va, vb), verdict)
		}
	}
	return agree, nil
}

// worsening is how much worse b is than a, as a share of a: positive
// when b is worse in the metric's direction.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		if a == b {
			return 0
		}
		return math.Inf(1)
	}
	rel := (b - a) / math.Abs(a)
	if d.better == "higher" {
		return -rel
	}
	return rel
}

// winFrac is the fraction of (a, b) pairs in which b is better; ties
// count for neither side.
func winFrac(d metricDef, va, vb []float64) float64 {
	wins := 0
	for _, x := range va {
		for _, y := range vb {
			if (d.better == "higher" && y > x) || (d.better == "lower" && y < x) {
				wins++
			}
		}
	}
	return float64(wins) / float64(len(va)*len(vb))
}

func spread(m, q1, q3 float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", m, q1, q3)
}

func sorted[T cmp.Ordered](s []T) []T {
	c := slices.Clone(s)
	slices.Sort(c)
	return c
}
