// Fixture for the refbalance check: every Acquire()d snapshot released on
// every path, the defer-in-loop and early-return traps, and the ownership
// transfers that legitimately end the obligation.
package refbalance

import "errors"

var errFail = errors.New("fail")

// Snapshot mirrors live.Snapshot structurally: a named type with a
// parameterless Release, which is what makes Acquire results tracked.
type Snapshot struct{ epoch uint64 }

func (s *Snapshot) Release()      {}
func (s *Snapshot) Epoch() uint64 { return s.epoch }

type Graph struct{}

func (g *Graph) Acquire() *Snapshot { return &Snapshot{} }

func consume(s *Snapshot)    {}
func work(epoch uint64) bool { return epoch > 0 }

// goodDefer is the canonical pattern.
func goodDefer(g *Graph) uint64 {
	snap := g.Acquire()
	defer snap.Release()
	return snap.Epoch()
}

// goodExplicit releases on both the error path and the happy path.
func goodExplicit(g *Graph, fail bool) error {
	snap := g.Acquire()
	if fail {
		snap.Release()
		return errFail
	}
	_ = snap.Epoch()
	snap.Release()
	return nil
}

// badEarlyReturn leaks on the error path: the return sits between Acquire
// and Release.
func badEarlyReturn(g *Graph, fail bool) error {
	snap := g.Acquire() // want `snap acquired here is not released at the return on line \d+`
	if fail {
		return errFail
	}
	snap.Release()
	return nil
}

// badDeferInLoop is the pile-up trap: the defer runs at function exit, so
// every iteration's snapshot stays pinned until the whole walk finishes.
func badDeferInLoop(g *Graph, n int) {
	for i := 0; i < n; i++ {
		snap := g.Acquire()  // want `snap is acquired inside the loop but still pinned at the end of the iteration`
		defer snap.Release() // want `defer snap.Release\(\) inside a loop runs at function exit`
		_ = work(snap.Epoch())
	}
}

// badLoopNoRelease never releases the per-iteration snapshot at all.
func badLoopNoRelease(g *Graph, n int) {
	for i := 0; i < n; i++ {
		snap := g.Acquire() // want `snap is acquired inside the loop but still pinned at the end of the iteration`
		_ = work(snap.Epoch())
	}
}

// goodLoopRelease releases each iteration's snapshot before the next.
func goodLoopRelease(g *Graph, n int) {
	for i := 0; i < n; i++ {
		snap := g.Acquire()
		_ = work(snap.Epoch())
		snap.Release()
	}
}

// badDiscard throws the handle away; nothing can ever release it.
func badDiscard(g *Graph) {
	g.Acquire() // want `result of Acquire\(\) is discarded`
}

// badReassign overwrites a pinned handle: the first snapshot leaks.
func badReassign(g *Graph) {
	snap := g.Acquire()
	snap = g.Acquire() // want `snap is reassigned while the snapshot acquired at line \d+ is still pinned`
	snap.Release()
}

// goodTransferReturn hands the pinned snapshot to the caller; the
// obligation moves with it.
func goodTransferReturn(g *Graph) *Snapshot {
	snap := g.Acquire()
	return snap
}

// goodTransferMethodValue is the engineSnapshot pattern: the Release
// method value escapes, so the receiver of the closure releases.
func goodTransferMethodValue(g *Graph) (uint64, func()) {
	snap := g.Acquire()
	return snap.Epoch(), snap.Release
}

// goodTransferArg passes the handle along; the callee owns it now.
func goodTransferArg(g *Graph) {
	snap := g.Acquire()
	consume(snap)
}

// goodBranches releases in every switch arm.
func goodBranches(g *Graph, mode int) {
	snap := g.Acquire()
	switch mode {
	case 0:
		snap.Release()
	case 1:
		_ = work(snap.Epoch())
		snap.Release()
	default:
		snap.Release()
	}
}
