// Job pool for independent simulation cells. Experiments like fig9
// run many self-contained simulations (one Env each, all starting at
// t=0) whose serial order only matters for how their recordings are
// concatenated. RunJobs executes them on worker threads and replays
// each job's private recording into the ambient recorder in job-index
// order — exactly the stream a serial loop would have produced.
package sim

// Host worker threads over fully independent simulations; each job's
// output stream is deterministic on its own and the merge is by job
// index, so worker count cannot affect bytes. Enforced by the 4-worker
// reruns of the output goldens in internal/bench.
//copiervet:ignore-file det-go,det-sync host worker threads over independent simulation cells; recordings merge in job-index order so worker count cannot affect output bytes

import (
	"sync"

	"copier/internal/obs"
)

// privateRingCap bounds each job's private recorder ring. Private
// rings keep parallel emission race-free; they are merged into the
// ambient recorder deterministically after the run. The cap is the
// same at every worker count, so retained-event sets (and therefore
// exports) cannot depend on the degree of parallelism.
const privateRingCap = 1 << 15

// JobCtx is one pooled job's context: its index in the job list and
// the recorder its environments feed.
type JobCtx struct {
	idx int
	rec *obs.Recorder
}

// Index returns the job's position in the RunJobs order.
func (jc *JobCtx) Index() int { return jc.idx }

// NewEnv returns a fresh environment wired to this job's private
// recorder. Pooled jobs must create environments through this (or
// plumb one down) instead of sim.NewEnv: the global OnNewEnv hook
// attaches the shared ambient recorder, which is not safe to feed from
// worker threads.
func (jc *JobCtx) NewEnv() *Env {
	return &Env{rec: jc.rec}
}

// RunJobs executes job(jc) for indices 0..n-1 on `workers` host
// threads (values < 1 mean serial; worker j takes indices j,
// j+workers, ...). Jobs must be independent: they share no state and
// each creates its environments via jc.NewEnv. After all jobs finish,
// private recordings are replayed into the ambient recorder in job
// order, so output is identical for every worker count.
//
// A job's panic reaches RunJobs' caller at every worker count, as it
// does from a serial loop: a worker stops at its first panicking job,
// and once every worker is done RunJobs re-panics with the value of
// the lowest-index job that panicked, replaying no recording.
func RunJobs(n, workers int, job func(jc *JobCtx)) {
	if n <= 0 {
		return
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	var ambient *obs.Recorder
	if OnNewEnv != nil {
		ambient = NewEnv().rec
	}
	jcs := make([]*JobCtx, n)
	for i := range jcs {
		jc := &JobCtx{idx: i}
		if ambient != nil {
			rc := ambient.Cap()
			if rc > privateRingCap {
				rc = privateRingCap
			}
			jc.rec = obs.NewRecorder(rc)
		}
		jcs[i] = jc
	}
	if workers == 1 {
		for _, jc := range jcs {
			job(jc)
		}
	} else {
		panics := make([]any, n)
		var wg sync.WaitGroup
		for j := 0; j < workers; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				for k := j; k < n; k += workers {
					if panics[k] = runJob(job, jcs[k]); panics[k] != nil {
						return
					}
				}
			}(j)
		}
		wg.Wait()
		for _, v := range panics {
			if v != nil {
				panic(v)
			}
		}
	}
	if ambient != nil {
		for _, jc := range jcs {
			jc.rec.Events(func(ev *obs.Event) { ambient.Emit(*ev) })
		}
	}
}

// runJob runs one job on a worker thread and returns its panic value,
// or nil, so that the panic can be raised again on RunJobs' caller.
func runJob(job func(jc *JobCtx), jc *JobCtx) (v any) {
	defer func() { v = recover() }()
	job(jc)
	return nil
}
