package gonative

// Adapter-level tests for the fused Fissile fast path: the uncontended
// Lock/TryLock/Unlock cycle must never touch the slot pool (that is
// the entire point of the fusion — no slot claim, no slot-pool RMW, no
// allocation between a goroutine and the lock word), while the
// contended fallback claims a slot only for the queue wait and returns
// it before the critical section runs.

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/lockreg"
	"repro/internal/locks/fissile"
)

// TestFissileFastPathTouchesNoFreelist: with the lock held via the
// fast path, every slot is still free — the acquisition consumed no
// pool capacity at all. A failing TryLock probe from another
// goroutine leaves the pool untouched too.
func TestFissileFastPathTouchesNoFreelist(t *testing.T) {
	m := Wrap(lockreg.MustSpec("cna-fissile"), testEnv(2)).(*Mutex)
	m.Lock()
	if free, capn := m.PoolStats(); free != capn {
		t.Fatalf("fast-path hold: %d of %d slots free, want all (no slot-pool traffic)", free, capn)
	}
	if m.TryLock() {
		t.Fatal("TryLock succeeded on a held lock")
	}
	if free, capn := m.PoolStats(); free != capn {
		t.Fatalf("failed TryLock probe: %d of %d slots free, want all", free, capn)
	}
	m.Unlock()
	if free, capn := m.PoolStats(); free != capn {
		t.Fatalf("after release: %d of %d slots free, want all", free, capn)
	}
}

// TestFissileTryLockNeedsNoSlot: a fissile TryLock is the outer-word
// CAS and nothing else, so it succeeds even when every thread slot is
// claimed — unlike the unfused adapter, where slot exhaustion fails
// TryLock.
func TestFissileTryLockNeedsNoSlot(t *testing.T) {
	m := Wrap(lockreg.MustSpec("mcs-fissile"), testEnv(1)).(*Mutex)
	th := m.pool.claim(time.Time{}) // drain the one-slot pool
	if !m.TryLock() {
		t.Fatal("fissile TryLock failed with the pool drained (it needs no slot)")
	}
	m.Unlock()
	m.pool.free.add(th)
}

// TestFissileSlowPathReturnsSlotBeforeCriticalSection: the queue
// fallback borrows a slot for the wait only — once Lock returns, the
// slot is back in the pool even though the caller still holds the
// lock.
func TestFissileSlowPathReturnsSlotBeforeCriticalSection(t *testing.T) {
	m := Wrap(lockreg.MustSpec("cna-fissile"), testEnv(2), lockreg.WithPatience(1)).(*Mutex)
	m.Lock() // fast path; forces the next Lock onto the queue
	claimed := make(chan struct{})
	result := make(chan string)
	go func() {
		go func() {
			// Watch the pool shrink while the slow path waits: proof
			// the fallback really claimed a slot.
			for {
				if free, capn := m.PoolStats(); free < capn {
					close(claimed)
					return
				}
				runtime.Gosched()
			}
		}()
		m.Lock() // slow path: claims a slot, queues, waits for the word
		free, capn := m.PoolStats()
		m.Unlock()
		if free != capn {
			result <- "slot not returned before the critical section"
			return
		}
		result <- ""
	}()
	<-claimed
	m.Unlock()
	if msg := <-result; msg != "" {
		t.Fatal(msg)
	}
}

// TestFissileTimedAdapter: LockTimeout through the fused path — a held
// word expires the budget without corrupting the pool; a free word
// acquires instantly.
func TestFissileTimedAdapter(t *testing.T) {
	m := Wrap(lockreg.MustSpec("cna-fissile"), testEnv(2)).(*Mutex)
	if !m.LockTimeout(time.Millisecond) {
		t.Fatal("LockTimeout failed on a free lock")
	}
	done := make(chan bool)
	go func() { done <- m.LockTimeout(2 * time.Millisecond) }()
	if <-done {
		t.Fatal("LockTimeout succeeded on a held lock")
	}
	if free, capn := m.PoolStats(); free != capn {
		t.Fatalf("expired timed acquire leaked a slot: %d of %d free", free, capn)
	}
	m.Unlock()
	if !m.LockTimeout(0) {
		t.Fatal("LockTimeout(0) (TryLock degradation) failed on a free lock")
	}
	m.Unlock()
}

// TestFissileUncontendedZeroAllocs pins the fast path's allocation-free
// contract end to end through the adapter: Lock+Unlock and
// TryLock+Unlock both stay on the stack.
func TestFissileUncontendedZeroAllocs(t *testing.T) {
	m := Wrap(lockreg.MustSpec("cna-fissile"), testEnv(2)).(*Mutex)
	if avg := testing.AllocsPerRun(200, func() {
		m.Lock()
		m.Unlock()
	}); avg != 0 {
		t.Fatalf("uncontended Lock/Unlock allocates %.1f objects per op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if m.TryLock() {
			m.Unlock()
		}
	}); avg != 0 {
		t.Fatalf("TryLock/Unlock allocates %.1f objects per op, want 0", avg)
	}
}

// TestFissileNativeStorm: the adapter's own mixed hammer over a
// fissile lock — more goroutines than slots, mixed Lock/TryLock/timed
// acquires, exact counter agreement, no slot leak. The registry-wide
// native suites cover every fissile spec; this adds the
// oversubscribed-timed mix on the flagship at a tiny pool.
func TestFissileNativeStorm(t *testing.T) {
	const capacity = 2
	const workers = 6
	iters := confIters(t)
	m := Wrap(lockreg.MustSpec("cna-fissile"), testEnv(capacity), lockreg.WithPatience(4)).(*Mutex)

	var counter int
	var acquired, expired int64
	var mu sync.Mutex // aggregates per-worker tallies only
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var acq, exp int64
			for i := 0; i < iters; i++ {
				switch w % 3 {
				case 0:
					m.Lock()
				case 1:
					for !m.TryLock() {
						runtime.Gosched()
					}
				default:
					if !m.LockTimeout(time.Duration(i%7) * time.Microsecond) {
						exp++
						continue
					}
				}
				counter++
				acq++
				m.Unlock()
			}
			mu.Lock()
			acquired += acq
			expired += exp
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if int64(counter) != acquired {
		t.Fatalf("counter = %d, acquisitions = %d (mutual exclusion violated)", counter, acquired)
	}
	if free, capn := m.PoolStats(); free != capn {
		t.Fatalf("%d of %d slots free after quiescence (slot leak)", free, capn)
	}
	t.Logf("%d acquisitions, %d timed expiries", acquired, expired)
}

// The fused field must be populated for every fissile spec, shared
// pools included, and stay nil for everything else.
func TestFissileFusionWiring(t *testing.T) {
	env := testEnv(2)
	if m := Wrap(lockreg.MustSpec("cna-fissile"), env).(*Mutex); m.fast == nil {
		t.Fatal("Wrap(cna-fissile) did not devirtualize the fast path")
	}
	if m := Wrap(lockreg.MustSpec("cna"), env).(*Mutex); m.fast != nil {
		t.Fatal("Wrap(cna) set a fissile fast path on a plain queue lock")
	}
	pool := NewPool(2, env.Topology)
	m := WrapWithPool(lockreg.MustSpec("hmcs-fissile"), env, pool)
	if m.fast == nil {
		t.Fatal("WrapWithPool(hmcs-fissile) did not devirtualize the fast path")
	}
	if _, ok := m.Inner().(*fissile.Lock); !ok {
		t.Fatal("Inner() does not expose the fissile composite")
	}
}
