package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// WritePerfetto writes the retained events as Chrome trace_event JSON
// (the JSON Object Format), loadable in Perfetto / chrome://tracing.
//
// Mapping: interval events (UnitBusyInterval, ThreadRun, TrapReturn)
// become complete ("X") slices; QueueDepthSample becomes a counter
// ("C") series; everything else becomes a thread-scoped instant
// ("i"). Tracks map to tids in first-seen order, with thread_name
// metadata so timelines are labeled. Timestamps are virtual cycles
// written as integer "microseconds" — the timeline's unit is cycles,
// not wall time (documented in README.md).
//
// Output is deterministic: events stream in ring order and tids in
// first-appearance order; no map is iterated.
func (r *Recorder) WritePerfetto(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	tids := make(map[string]int)
	var trackOrder []string
	tidOf := func(track string) int {
		if id, ok := tids[track]; ok {
			return id
		}
		id := len(tids) + 1
		tids[track] = id
		trackOrder = append(trackOrder, track)
		return id
	}
	nout := 0
	comma := func() {
		if nout > 0 {
			bw.WriteByte(',')
		}
		nout++
	}
	r.Events(func(e *Event) {
		tid := tidOf(e.Track)
		comma()
		bw.WriteString(`{"name":`)
		writeJSONString(bw, e.Name)
		bw.WriteString(`,"cat":"`)
		bw.WriteString(e.Kind.Layer().String())
		bw.WriteString(`","ts":`)
		bw.WriteString(strconv.FormatInt(e.T, 10))
		switch {
		case e.span():
			bw.WriteString(`,"dur":`)
			bw.WriteString(strconv.FormatInt(e.Dur, 10))
			bw.WriteString(`,"ph":"X"`)
		case e.counter():
			bw.WriteString(`,"ph":"C","args":{"depth":`)
			bw.WriteString(strconv.FormatInt(e.B, 10))
			bw.WriteString(`},"id":`)
			bw.WriteString(strconv.FormatInt(e.A, 10))
		default:
			bw.WriteString(`,"ph":"i","s":"t"`)
		}
		bw.WriteString(`,"pid":1,"tid":`)
		bw.WriteString(strconv.Itoa(tid))
		if !e.counter() {
			bw.WriteString(`,"args":{"a":`)
			bw.WriteString(strconv.FormatInt(e.A, 10))
			bw.WriteString(`,"b":`)
			bw.WriteString(strconv.FormatInt(e.B, 10))
			bw.WriteString(`,"kind":"`)
			bw.WriteString(e.Kind.String())
			bw.WriteString(`"}`)
		}
		bw.WriteByte('}')
	})
	// Track labels, in first-seen order.
	for _, track := range trackOrder {
		comma()
		bw.WriteString(`{"name":"thread_name","ph":"M","pid":1,"tid":`)
		bw.WriteString(strconv.Itoa(tids[track]))
		bw.WriteString(`,"args":{"name":`)
		writeJSONString(bw, track)
		bw.WriteString(`}}`)
	}
	comma()
	bw.WriteString(`{"name":"process_name","ph":"M","pid":1,"args":{"name":"copier-sim"}}`)
	if _, err := bw.WriteString(`],"displayTimeUnit":"ms","otherData":{"clock":"virtual-cycles"}}` + "\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// writeJSONString writes s as a JSON string literal, escaping the
// characters our static labels could plausibly contain.
func writeJSONString(bw *bufio.Writer, s string) {
	bw.WriteByte('"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			bw.WriteByte('\\')
			bw.WriteByte(c)
		case c < 0x20:
			fmt.Fprintf(bw, `\u%04x`, c)
		default:
			bw.WriteByte(c)
		}
	}
	bw.WriteByte('"')
}

// WriteSummary writes the compact text summary: event counts by kind
// and layer, the latency histograms with p50/p99/p999, and per-unit
// utilization over the observed window. Deterministic: fixed kind
// order, registration-ordered units.
func (r *Recorder) WriteSummary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "== observability summary ==\n")
	fmt.Fprintf(bw, "events: total=%d retained=%d dropped=%d window=[%d,%d] cycles\n",
		r.Total(), r.Total()-r.Dropped(), r.Dropped(), r.first, r.last)
	fmt.Fprintf(bw, "by layer:")
	for l := Layer(0); l < numLayers; l++ {
		fmt.Fprintf(bw, " %s=%d", l, r.byLayer[l])
	}
	fmt.Fprintf(bw, "\nby kind:\n")
	for k := EventKind(0); k < numEventKinds; k++ {
		if r.counts[k] == 0 {
			continue
		}
		fmt.Fprintf(bw, "  %-18s %d\n", k.String(), r.counts[k])
	}
	fmt.Fprintf(bw, "histograms (cycles; power-of-two buckets, quantiles are bucket upper bounds):\n")
	writeHist(bw, "task latency", &r.TaskLatency)
	writeHist(bw, "queue residency", &r.QueueResidency)
	writeHist(bw, "trap residency", &r.TrapResidency)
	writeHist(bw, "queue depth", &r.QueueDepth)
	if len(r.units) > 0 {
		window := r.last - r.first
		fmt.Fprintf(bw, "unit occupancy over %d cycles:\n", window)
		for i := range r.units {
			u := &r.units[i]
			util := 0.0
			if window > 0 {
				util = 100 * float64(u.busy) / float64(window)
			}
			fmt.Fprintf(bw, "  %-16s busy=%-12d intervals=%-8d bytes=%-12d util=%.1f%%\n",
				u.track, u.busy, u.intervals, u.bytes, util)
		}
	}
	return bw.Flush()
}

func writeHist(w io.Writer, name string, h *Histogram) {
	if h.Count() == 0 {
		return
	}
	fmt.Fprintf(w, "  %-16s n=%-8d avg=%-10d p50=%-10d p99=%-10d p999=%-10d max=%d\n",
		name, h.Count(), h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999), h.Max())
}
