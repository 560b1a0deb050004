// Package lifesnip is the lifelint golden corpus: each function below
// reproduces one defect class from the lifecycle typestate checker
// (see ../../lifesnip.golden), and the clean functions pin the
// analyzer's precision — they must produce nothing.
package lifesnip

import (
	"errors"

	"copier/internal/lint/testdata/src/lifesnip/resx"
)

var errBoom = errors.New("boom")

// leak drops a completed handle without releasing it. life-leak.
func leak() {
	r := resx.New()
	r.Wait()
}

// doubleRelease gives the handle back twice. life-double-release.
func doubleRelease() {
	r := resx.New()
	r.Wait()
	r.Release()
	r.Release()
}

// useAfterRelease observes a handle that was already recycled.
// life-use-after-release.
func useAfterRelease() {
	r := resx.New()
	r.Wait()
	r.Release()
	r.Wait()
}

// joinLeak releases on only one branch: after the join the handle is
// released on one path and still held on the other. life-leak (the
// "may be dropped" join form).
func joinLeak(ok bool) {
	r := resx.New()
	r.Wait()
	if ok {
		r.Release()
	}
}

// consume takes over its argument and releases it; the summary makes
// every caller treat the value as released after the call.
func consume(r *resx.Res) {
	r.Wait()
	r.Release()
}

// interDouble releases a handle the helper above already consumed.
// life-double-release, found interprocedurally through the summary.
func interDouble() {
	r := resx.New()
	consume(r)
	r.Release()
}

// interClean hands the obligation to the consuming helper — clean.
func interClean() {
	r := resx.New()
	consume(r)
}

// grabLeak drops the pair obligation on the early error return: the
// Grab at the top is not matched by Drop on that path. life-leak.
func grabLeak(a *resx.Arena, fail bool) error {
	if err := a.Grab(4); err != nil {
		return err
	}
	if fail {
		return errBoom
	}
	a.Drop(4)
	return nil
}

// polled is clean: the Done test narrows the state to done before the
// Release, so the done-only transition is provably legal.
func polled() *resx.Res {
	r := resx.New()
	for !r.Done() {
	}
	r.Release()
	return nil
}

// deferred is clean: the deferred TryRelease discharges the handle on
// every path out of the function.
func deferred(n int) int {
	r := resx.New()
	defer r.TryRelease()
	r.Wait()
	return n * 2
}

// suppressedLeak is a justified exception: the obligation is dropped
// deliberately and the directive says why, so nothing reaches the
// golden file.
func suppressedLeak() {
	r := resx.New()
	r.Wait()
	//copiervet:ignore life-leak corpus exercises a justified drop; the process exits here
}

// staleSuppression releases correctly, so its directive suppresses
// nothing. suppress-unused.
func staleSuppression() {
	//copiervet:ignore life-leak historical; the release below was added later
	r := resx.New()
	r.Wait()
	r.Release()
}

// badSpec carries a malformed directive: "nosuchstate" is not in the
// declared state list. life-spec.
//
//copier:lifecycle type badSpec states=idle,busy accept=idle
//copier:lifecycle op Close nosuchstate -> idle
type badSpec struct{}

// Close exists so only the state name — not the method — is the error.
func (badSpec) Close() {}

// releaseInPost releases in the loop's post statement, which runs at
// the end of every iteration: the next iteration's Wait is a
// use-after-release, and the zero-iteration path drops the live
// handle. life-use-after-release and life-leak.
func releaseInPost(n int) {
	r := resx.New()
	for i := 0; i < n; r.Release() {
		r.Wait()
		i++
	}
}

// releaseInBody is the same loop with the release moved into the
// body; it reports the same rules as releaseInPost.
func releaseInBody(n int) {
	r := resx.New()
	for i := 0; i < n; i++ {
		r.Wait()
		r.Release()
	}
}
