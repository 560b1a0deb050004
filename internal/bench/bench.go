// Package bench is the experiment harness: one driver per table and
// figure in the paper's evaluation (§6), each regenerating the same
// rows or series the paper reports on top of this repository's
// simulated machine. Absolute numbers come from the calibrated cost
// model; the shapes (who wins, by how much, where crossovers fall) are
// the reproduction targets, recorded against the paper in
// EXPERIMENTS.md.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Table is one experiment's output.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var sb strings.Builder
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) && len(c) < widths[i] {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	}
	line(t.Columns)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Scale controls experiment size: Quick keeps CI fast, Full matches
// the figures' ranges.
type Scale int

const (
	Quick Scale = iota
	Full
)

// Experiment is one registered driver.
type Experiment struct {
	ID    string
	Paper string // which table/figure it reproduces
	Run   func(s Scale) []*Table
}

var registry []Experiment

// parWorkers is the host worker-thread count experiments use for
// independent simulation cells (sim.RunJobs). Output bytes are
// identical for every value — only wall clock changes; the output
// goldens, checked at 1 and 4 workers, enforce it.
var parWorkers = 1

// SetWorkers configures how many host threads experiments with
// parallelizable cells may use. Values < 1 select serial execution.
func SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	parWorkers = n
}

func register(id, paper string, run func(s Scale) []*Table) {
	registry = append(registry, Experiment{ID: id, Paper: paper, Run: run})
}

// Experiments lists registered drivers sorted by ID.
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// pct formats a relative change as "+x.x%" / "-x.x%".
func pct(newV, oldV float64) string {
	if oldV == 0 {
		return "n/a"
	}
	d := (newV/oldV - 1) * 100
	return fmt.Sprintf("%+.1f%%", d)
}

// speedup formats old/new as "x.xx×".
func speedup(oldV, newV float64) string {
	if newV == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", oldV/newV)
}

// kb renders a byte size compactly.
func kb(n int) string {
	if n >= 1<<20 && n%(1<<20) == 0 {
		return fmt.Sprintf("%dMB", n>>20)
	}
	if n >= 1024 && n%1024 == 0 {
		return fmt.Sprintf("%dKB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}
