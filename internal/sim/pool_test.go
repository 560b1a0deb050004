package sim

import (
	"fmt"
	"strings"
	"testing"

	"copier/internal/obs"
)

// recorderStream renders a recorder's retained events for comparison.
func recorderStream(r *obs.Recorder) string {
	var b strings.Builder
	r.Events(func(e *obs.Event) {
		fmt.Fprintf(&b, "%d %d %s %s %d %d\n", e.T, e.Kind, e.Track, e.Name, e.A, e.B)
	})
	return b.String()
}

func TestRunJobsIdentityAndMergeOrder(t *testing.T) {
	run := func(workers int) string {
		amb := obs.NewRecorder(1 << 12)
		old := OnNewEnv
		OnNewEnv = func(e *Env) { e.SetRecorder(amb) }
		defer func() { OnNewEnv = old }()
		RunJobs(6, workers, func(jc *JobCtx) {
			env := jc.NewEnv()
			idx := jc.Index()
			env.Go("job", func(p *Proc) {
				for k := 0; k < 5; k++ {
					p.Wait(Time(100 + 3*idx))
					env.Recorder().Emit(obs.Event{T: int64(p.Now()), Kind: obs.EvTaskSubmit, Track: "t", Name: fmt.Sprintf("job%d", idx), A: int64(k)})
				}
			})
			if err := env.Run(Infinity); err != nil {
				t.Error(err)
			}
		})
		return recorderStream(amb)
	}
	base := run(1)
	if !strings.Contains(base, "job5") {
		t.Fatalf("missing job output:\n%s", base)
	}
	// Merge is by job index: all of job0's events precede job1's even
	// though their virtual times overlap.
	if i0, i5 := strings.Index(base, "job0"), strings.Index(base, "job5"); i0 > i5 {
		t.Fatalf("job recordings not merged in job order:\n%s", base)
	}
	for _, w := range []int{2, 3, 6} {
		if got := run(w); got != base {
			t.Fatalf("workers=%d ambient stream differs from serial", w)
		}
	}
}

// TestRunJobsPanicReachesCaller: jobs 2 and 3 of 4 panic in a process
// body. At every worker count the caller recovers job 2's value, the
// one a serial loop would raise, and no job's recording reaches the
// ambient recorder.
func TestRunJobsPanicReachesCaller(t *testing.T) {
	old := OnNewEnv
	defer func() { OnNewEnv = old }()
	for _, workers := range []int{1, 2, 4} {
		amb := obs.NewRecorder(1 << 12)
		OnNewEnv = func(e *Env) { e.SetRecorder(amb) }
		got := func() (v any) {
			defer func() { v = recover() }()
			RunJobs(4, workers, func(jc *JobCtx) {
				env := jc.NewEnv()
				idx := jc.Index()
				env.Go("job", func(p *Proc) {
					p.Wait(10)
					env.Recorder().Emit(obs.Event{T: int64(p.Now()), Kind: obs.EvTaskSubmit, Track: "t", Name: fmt.Sprintf("job%d", idx)})
					if idx >= 2 {
						panic(fmt.Sprintf("job %d", idx))
					}
				})
				if err := env.Run(Infinity); err != nil {
					t.Error(err)
				}
			})
			return nil
		}()
		if got != "job 2" {
			t.Errorf("workers=%d: caller recovered %v, want job 2", workers, got)
		}
		if s := recorderStream(amb); s != "" {
			t.Errorf("workers=%d: recordings replayed after a panic:\n%s", workers, s)
		}
	}
}
