// Command copierbench regenerates the paper's evaluation tables and
// figures on the simulated machine.
//
// Usage:
//
//	copierbench -list              # show available experiments
//	copierbench -run fig11        # one experiment
//	copierbench -run all -full    # everything at figure scale
//	copierbench -run fig9 -trace t.json -metrics
//
// -trace records every typed observability event emitted during the
// runs and writes a Chrome trace_event JSON file loadable in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing; timestamps are
// virtual cycles. -metrics prints the compact text summary (event
// counts, latency histograms, unit occupancy) after the runs.
//
// -benchjson skips the experiments and instead runs the hot-path
// microbenchmarks (simulator event queue, service ring/dispatch,
// acopy runtime) via testing.Benchmark, writing ns/op, allocs/op and
// bytes-per-second results as JSON — `make bench` uses this to
// refresh BENCH_results.json.
//
// -cpuprofile FILE writes a runtime/pprof CPU profile of the selected
// experiments (not of output writing) to FILE, for `go tool pprof`.
//
// The independent simulation cells of fig9, fig12b, chaos, fleet and
// chaosfleet run on a job pool of runtime.GOMAXPROCS(0) host worker
// threads; GOMAXPROCS=1 runs them serially. Output is byte-identical at
// every worker count — the job pool replays each cell's recording in
// cell order, and the output goldens (internal/bench/testdata/golden,
// checked at 1 and 4 workers) enforce it — so the count changes wall
// clock only.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"copier/internal/bench"
	"copier/internal/obs"
	"copier/internal/sim"
)

func runBenchJSON(path string) {
	rep := bench.RunMicrobenches()
	fmt.Printf("%-26s %14s %11s %14s\n", "benchmark", "ns/op", "allocs/op", "MB/s")
	for _, r := range rep.Results {
		mbs := "-"
		if r.SimBytesPerSec > 0 {
			mbs = fmt.Sprintf("%.1f", r.SimBytesPerSec/1e6)
		}
		fmt.Printf("%-26s %14.2f %11d %14s\n", r.Name, r.NsPerOp, r.AllocsPerOp, mbs)
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "copierbench: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "copierbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "copierbench: wrote %d benchmark results to %s\n", len(rep.Results), path)
}

// startCPUProfile starts a CPU profile into path and returns the
// function that stops it and closes the file.
func startCPUProfile(path string) func() {
	f, err := os.Create(path)
	if err == nil {
		err = pprof.StartCPUProfile(f)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "copierbench: %v\n", err)
		os.Exit(1)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "copierbench: %v\n", err)
			os.Exit(1)
		}
	}
}

func main() {
	list := flag.Bool("list", false, "list experiments")
	run := flag.String("run", "all", "experiment id (or comma list, or 'all')")
	full := flag.Bool("full", false, "full figure-scale sweeps (slower)")
	trace := flag.String("trace", "", "write Chrome/Perfetto trace_event JSON to this file")
	metrics := flag.Bool("metrics", false, "print event-count and latency-histogram summary")
	benchjson := flag.String("benchjson", "", "run hot-path microbenchmarks and write JSON results to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	flag.Parse()

	bench.SetWorkers(runtime.GOMAXPROCS(0))

	if *benchjson != "" {
		runBenchJSON(*benchjson)
		return
	}
	if *list {
		fmt.Println("experiment  reproduces")
		fmt.Println("---------------------")
		for _, e := range bench.Experiments() {
			fmt.Printf("%-10s  %s\n", e.ID, e.Paper)
		}
		return
	}
	scale := bench.Quick
	if *full {
		scale = bench.Full
	}

	// Experiments create simulation environments internally (often one
	// per data point), so recording attaches via the env-creation hook:
	// one recorder observes every environment the run builds.
	var rec *obs.Recorder
	if *trace != "" || *metrics {
		rec = obs.NewRecorder(obs.DefaultRingCap)
		sim.OnNewEnv = func(e *sim.Env) { e.SetRecorder(rec) }
		defer func() { sim.OnNewEnv = nil }()
	}

	var ids []string
	if *run == "all" {
		for _, e := range bench.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*run, ",")
	}
	stopProfile := func() {}
	if *cpuprofile != "" {
		stopProfile = startCPUProfile(*cpuprofile)
	}
	for _, id := range ids {
		e, ok := bench.ByID(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "copierbench: unknown experiment %q (try -list)\n", id)
			os.Exit(1)
		}
		for _, t := range e.Run(scale) {
			t.Fprint(os.Stdout)
		}
	}
	stopProfile()

	if rec == nil {
		return
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "copierbench: %v\n", err)
			os.Exit(1)
		}
		err = rec.WritePerfetto(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "copierbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "copierbench: wrote %d events (%d dropped) to %s\n",
			rec.Total(), rec.Dropped(), *trace)
	}
	if *metrics {
		fmt.Println()
		rec.WriteSummary(os.Stdout)
	}
}
