package hmcs

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/locks"
	"repro/internal/numa"
)

func hammer(t *testing.T, lock *HMCS, place *numa.Placement, threads, iters int) int {
	t.Helper()
	var counter int
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := locks.NewThread(w, place.SocketOf(w))
			for i := 0; i < iters; i++ {
				lock.Lock(th)
				counter++
				lock.Unlock(th)
			}
		}(w)
	}
	wg.Wait()
	return counter
}

func TestMutualExclusionTwoSockets(t *testing.T) {
	place := numa.NewPlacement(numa.TwoSocketXeonE5(), 8, numa.Spread)
	lock := New(2, 8, DefaultThreshold)
	if got := hammer(t, lock, place, 8, 250); got != 2000 {
		t.Fatalf("counter = %d, want 2000", got)
	}
}

func TestMutualExclusionFourSockets(t *testing.T) {
	place := numa.NewPlacement(numa.FourSocketXeonE7(), 8, numa.Spread)
	lock := New(4, 8, DefaultThreshold)
	if got := hammer(t, lock, place, 8, 250); got != 2000 {
		t.Fatalf("counter = %d, want 2000", got)
	}
}

func TestSingleThread(t *testing.T) {
	lock := New(2, 1, DefaultThreshold)
	th := locks.NewThread(0, 1)
	for i := 0; i < 100; i++ {
		lock.Lock(th)
		lock.Unlock(th)
	}
	if th.Depth() != 0 {
		t.Fatalf("depth = %d", th.Depth())
	}
}

func TestThresholdOnePassesGlobally(t *testing.T) {
	// threshold 1 means every release goes through the root: correctness
	// must hold even with zero cohort passing.
	place := numa.NewPlacement(numa.TwoSocketXeonE5(), 4, numa.Spread)
	lock := New(2, 4, 1)
	if got := hammer(t, lock, place, 4, 250); got != 1000 {
		t.Fatalf("counter = %d, want 1000", got)
	}
}

func TestThresholdNormalised(t *testing.T) {
	lock := New(2, 1, 0)
	if lock.threshold != 1 {
		t.Fatalf("threshold = %d, want 1", lock.threshold)
	}
}

func TestZeroSocketsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, ...) did not panic")
		}
	}()
	New(0, 1, 1)
}

func TestLocalHandoverDominates(t *testing.T) {
	place := numa.NewPlacement(numa.TwoSocketXeonE5(), 4, numa.Spread)
	lock := New(2, 4, DefaultThreshold)
	lock.EnableStats()
	hammer(t, lock, place, 4, 500)
	if frac := lock.Handovers().RemoteFraction(); frac > 0.5 {
		local, remote := lock.Handovers().Counts()
		t.Errorf("remote fraction %.2f (local=%d remote=%d): HMCS not keeping lock local",
			frac, local, remote)
	}
}

func TestNestedHMCS(t *testing.T) {
	a := New(2, 4, 8)
	b := New(2, 4, 8)
	var counter int
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := locks.NewThread(w, w%2)
			for i := 0; i < 150; i++ {
				a.Lock(th)
				b.Lock(th)
				counter++
				b.Unlock(th)
				a.Unlock(th)
			}
		}(w)
	}
	wg.Wait()
	if counter != 600 {
		t.Fatalf("counter = %d, want 600", counter)
	}
}

// TestTryLockLeavesAbandonedNodeQueued: a TryLock by a thread whose
// node is still queued as the tombstone of a timed-out acquire must
// fail without touching that node. Rewriting its next link would cut
// the waiters queued behind it off the leaf queue, and the holder's
// release walk would wait forever for a link that never comes.
func TestTryLockLeavesAbandonedNodeQueued(t *testing.T) {
	lock := New(2, 3, DefaultThreshold)
	holder, quitter, waiter := locks.NewThread(0, 0), locks.NewThread(1, 0), locks.NewThread(2, 0)
	lock.Lock(holder)
	if lock.LockTimeout(quitter, time.Millisecond) {
		t.Fatal("LockTimeout succeeded on a held lock")
	}
	tombstone := &lock.nodes[quitter.ID][0]
	acquired := make(chan struct{})
	go func() {
		lock.Lock(waiter)
		close(acquired)
	}()
	for tombstone.next.Load() == nil { // waiter links in behind the tombstone
		runtime.Gosched()
	}
	if lock.TryLock(quitter) {
		t.Fatal("TryLock succeeded on a held lock")
	}
	go lock.Unlock(holder)
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter queued behind the abandoned node never acquired: the queue was cut")
	}
	lock.Unlock(waiter)
	for _, th := range []*locks.Thread{holder, quitter, waiter} {
		if d := th.Depth(); d != 0 {
			t.Fatalf("thread %d left at depth %d", th.ID, d)
		}
	}
}
