// Command copiertrace renders a cycle-accurate, per-core/per-unit
// timeline of the Copier service handling the paper's proxy pattern
// (§4.4): a lazy recv copy whose header is promoted by csync, a
// forwarding send that absorbs the unexecuted remainder straight from
// the kernel source, and the final abort discarding the dead
// intermediate copy.
//
// The timeline is driven by the typed observability stream
// (internal/obs): every row is one recorded event, ordered by virtual
// time, grouped under its track (kernel:coreN, hw:AVX, hw:DMA,
// core:tasks, ...). With -trace the same stream is written as
// Chrome/Perfetto trace_event JSON; with -summary the histogram and
// occupancy summary follows the timeline.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"copier/internal/core"
	"copier/internal/cycles"
	"copier/internal/kernel"
	"copier/internal/libcopier"
	"copier/internal/mem"
	"copier/internal/obs"
	"copier/internal/sim"
	"copier/internal/units"
)

func main() {
	traceOut := flag.String("trace", "", "also write Chrome/Perfetto trace_event JSON to this file")
	summary := flag.Bool("summary", false, "print histogram and occupancy summary after the timeline")
	flag.Parse()

	if err := run(os.Stdout, *traceOut, *summary); err != nil {
		fmt.Fprintln(os.Stderr, "copiertrace:", err)
		os.Exit(1)
	}
}

// run simulates the proxy scenario and writes its timeline and stats
// line to w, then the summary when summary is set. A non-empty
// traceOut also receives the Perfetto export. The output is
// deterministic (virtual time only) and pinned by a golden test.
func run(w io.Writer, traceOut string, summary bool) error {
	rec := obs.NewRecorder(obs.DefaultRingCap)
	sim.OnNewEnv = func(e *sim.Env) { e.SetRecorder(rec) }
	defer func() { sim.OnNewEnv = nil }()

	m := kernel.NewMachine(kernel.Config{Cores: 3})
	m.InstallCopier(core.DefaultConfig(), 1, 2)
	proxy := m.NewProcess("proxy")
	attach := m.AttachCopier(proxy)

	const n = 32 << 10
	kas := m.KernelAS
	k1 := mustKBuf(kas, n) // incoming message in a kernel buffer
	fillK(kas, k1, n)
	u := mustBuf(proxy, n) // proxy's user buffer
	k2 := mustKBuf(kas, n) // outgoing kernel buffer

	th := m.Spawn(proxy, "forward", func(t *kernel.Thread) {
		lib := attach.Lib
		desc := core.NewDescriptor(u, n, core.DefaultSegSize)
		err := lib.AmemcpyOpts(t, u, k1, n, libcopier.Opts{
			KMode: true, Lazy: true, Desc: desc, LazyDeadline: sim.Infinity,
			SrcAS: m.KernelAS, DstAS: proxy.AS,
		})
		if err != nil {
			panic(err)
		}
		// csync the 128-byte header — promotes one segment only.
		if err := lib.CsyncDesc(t, desc, 0, 128); err != nil {
			panic(err)
		}
		t.Exec(cycles.Mul(128, cycles.ParseByteNum, cycles.ParseByteDen))
		// Route decided; send U -> K2 absorbs the rest from K1.
		sendDesc := core.NewDescriptor(k2, n, core.DefaultSegSize)
		err = lib.AmemcpyOpts(t, k2, u, n, libcopier.Opts{
			KMode: true, Desc: sendDesc, NoTrack: true,
			SrcAS: proxy.AS, DstAS: m.KernelAS,
		})
		if err != nil {
			panic(err)
		}
		if err := lib.CsyncDesc(t, sendDesc, 0, n); err != nil {
			panic(err)
		}
		// Forwarded; abort the dead lazy copy.
		attach.Client.SubmitAbortDesc(desc, false)
		t.Exec(5_000)
	})
	if err := m.RunApps(th); err != nil {
		panic(err)
	}

	printTimeline(w, rec)

	svc := m.Copier()
	fmt.Fprintf(w, "\nstats: tasks=%d absorbed=%dB aborted=%d avx=%dB dma=%dB\n",
		svc.Stats.TasksExecuted, svc.Stats.AbsorbedBytes, svc.Stats.AbortedTasks,
		svc.Stats.AVXBytes, svc.Stats.DMABytes)

	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		err = rec.WritePerfetto(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(w, "wrote %d events to %s\n", rec.Total(), traceOut)
	}
	if summary {
		fmt.Fprintln(w)
		return rec.WriteSummary(w)
	}
	return nil
}

// printTimeline prints the recorded events in virtual-time order, one
// row per event, keyed by track. Span events (thread runs, unit busy
// intervals, syscalls) sort by their start time; ties keep emission
// order, which is deterministic.
func printTimeline(w io.Writer, rec *obs.Recorder) {
	var evs []obs.Event
	rec.Events(func(e *obs.Event) { evs = append(evs, *e) })
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
	fmt.Fprintf(w, "%12s  %-15s %s\n", "cycles", "track", "event")
	fmt.Fprintf(w, "%12s  %-15s %s\n", "------", "-----", "-----")
	for i := range evs {
		e := &evs[i]
		fmt.Fprintf(w, "%12d  %-15s %s\n", e.T, e.Track, describe(e))
	}
}

// describe renders one event's payload for the timeline.
func describe(e *obs.Event) string {
	switch e.Kind {
	case obs.EvTaskSubmit:
		return fmt.Sprintf("submit %s task=%d len=%dB", e.Name, e.A, e.B)
	case obs.EvTaskDispatch:
		return fmt.Sprintf("dispatch %s task=%d queued=%d", e.Name, e.A, e.B)
	case obs.EvSegmentDone:
		return fmt.Sprintf("segment %s task=%d len=%dB", e.Name, e.A, e.B)
	case obs.EvTaskComplete:
		return fmt.Sprintf("complete %s task=%d latency=%d", e.Name, e.A, e.B)
	case obs.EvQueueDepthSample:
		return fmt.Sprintf("backlog %s depth=%d", e.Name, e.B)
	case obs.EvUnitBusyInterval:
		return fmt.Sprintf("busy %s %dB [+%d)", e.Name, e.A, e.Dur)
	case obs.EvThreadRun:
		return fmt.Sprintf("run %s tid=%d [+%d)", e.Name, e.A, e.Dur)
	case obs.EvTrapReturn:
		return fmt.Sprintf("syscall %s tid=%d [+%d)", e.Name, e.A, e.Dur)
	case obs.EvDMASubmit:
		return fmt.Sprintf("dma-submit %dB", e.A)
	case obs.EvProcStart, obs.EvProcEnd:
		return fmt.Sprintf("%s %s", e.Kind, e.Name)
	case obs.EvATCacheHit, obs.EvATCacheMiss:
		return fmt.Sprintf("at-cache %s vpn=%#x", e.Name, e.A)
	default:
		return fmt.Sprintf("%s %s a=%d b=%d", e.Kind, e.Name, e.A, e.B)
	}
}

func mustBuf(p *kernel.Process, n units.Bytes) mem.VA {
	va := p.AS.MMap(n, mem.PermRead|mem.PermWrite, "buf")
	if _, err := p.AS.Populate(va, n, true); err != nil {
		panic(err)
	}
	return va
}

func mustKBuf(kas *mem.AddrSpace, n units.Bytes) mem.VA {
	va := kas.MMap(n, mem.PermRead|mem.PermWrite, "kbuf")
	if _, err := kas.Populate(va, n, true); err != nil {
		panic(err)
	}
	return va
}

func fillK(kas *mem.AddrSpace, va mem.VA, n int) {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(i)
	}
	if err := kas.WriteAt(va, buf); err != nil {
		panic(err)
	}
}
