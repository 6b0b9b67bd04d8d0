package lockreg

// The fissile conformance storms: every registered *-fissile spec is
// hammered with deliberately mixed acquisition paths — plain Lock
// (fast CAS or queue fallback, the lock decides), TryLock (fast path
// only), and jittered LockTimeout whose deadlines regularly expire
// while a fast-path holder is spinning the queue out — with exact
// counter agreement at the end: every successful acquisition of any
// flavour incremented an unprotected counter exactly once. Run under
// -race in CI, this is the interleaving net for the composite
// protocol: a fast-path acquire racing the alpha's bar, an expiring
// alpha withdrawing its bar while a holder releases, a TryLock
// probing the word mid-hand-back.

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/locknames"
	"repro/internal/locks/fissile"
)

// fissileSpecs returns every registered *-fissile spec.
func fissileSpecs() []Spec {
	var out []Spec
	for _, spec := range All() {
		if strings.HasSuffix(spec.Name, locknames.FissileSuffix) {
			out = append(out, spec)
		}
	}
	return out
}

func TestFissileSpecsRegistered(t *testing.T) {
	if got := len(fissileSpecs()); got != 7 {
		t.Fatalf("registered %d fissile specs, want 7", got)
	}
	// The derived spec resolves through the base's aliases too.
	if spec, ok := Lookup("cna-opt-fissile"); !ok || spec.Name != NameCNAOptFissile {
		t.Fatalf("Lookup(cna-opt-fissile) = %+v, %v", spec, ok)
	}
}

// TestFissileConformanceStorm is the mixed fast-path/queue-path
// hammer. A small patience makes the bar/reopen cycle fire constantly
// instead of only under pathological timing, and the timed workers'
// 0–6µs jittered deadlines expire at every protocol stage — while a
// fast-path holder spins the queue out, while the alpha is barred,
// while the inner queue is draining.
func TestFissileConformanceStorm(t *testing.T) {
	for _, spec := range fissileSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			const workers = 6
			iters := confIters(t) / 2
			m := spec.Build(testEnv(workers), WithPatience(4))
			ths := confThreads(workers)

			var counter int64 // protected by m; non-atomic on purpose
			var acquired atomic.Int64
			var expiries atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					th := ths[w]
					for i := 0; i < iters; i++ {
						switch w % 3 {
						case 0: // plain Lock: fast or queue, the lock decides
							m.Lock(th)
						case 1: // TryLock: fast path only, spin it in
							for !m.TryLock(th) {
								runtime.Gosched()
							}
						default: // jittered timed acquire, expiry expected
							d := time.Duration(i%7) * time.Microsecond
							if !m.LockTimeout(th, d) {
								expiries.Add(1)
								continue
							}
						}
						counter++
						acquired.Add(1)
						m.Unlock(th)
					}
				}(w)
			}
			wg.Wait()
			if counter != acquired.Load() {
				t.Fatalf("%s: counter = %d, acquisitions = %d (mutual exclusion violated)",
					spec.Name, counter, acquired.Load())
			}
			// The word must be fully released: no stuck lock bit, no
			// leaked bar from an expired alpha.
			if !m.TryLock(ths[0]) {
				t.Fatalf("%s: lock not free after quiescence (leaked bar or lost unlock)", spec.Name)
			}
			m.Unlock(ths[0])
			t.Logf("%s: %d acquisitions, %d timed expiries", spec.Name, acquired.Load(), expiries.Load())
		})
	}
}

// TestFissileStatsAgree cross-checks the composite's opt-in counters
// against ground truth under the same mixed storm: every successful
// acquisition is classified as exactly one of fast or slow, and the
// classification sums to the acquisition count.
func TestFissileStatsAgree(t *testing.T) {
	const workers = 4
	iters := confIters(t) / 2
	m := MustBuild(NameCNAFissile, testEnv(workers), WithStats(true), WithPatience(4))
	f := m.(*fissile.Lock)
	ths := confThreads(workers)

	var acquired atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := ths[w]
			for i := 0; i < iters; i++ {
				if w%2 == 0 {
					m.Lock(th)
				} else {
					for !m.TryLock(th) {
						runtime.Gosched()
					}
				}
				acquired.Add(1)
				m.Unlock(th)
			}
		}(w)
	}
	wg.Wait()
	st := f.Stats()
	if st.FastAcquires+st.SlowAcquires != acquired.Load() {
		t.Fatalf("stats classify %d+%d acquisitions, ground truth %d",
			st.FastAcquires, st.SlowAcquires, acquired.Load())
	}
	t.Logf("fast %d, slow %d, handbacks %d", st.FastAcquires, st.SlowAcquires, st.Handbacks)
}

// TestFissileAntiStarvation pins the bounded-barging guarantee: a
// queue waiter forced onto the slow path must acquire in bounded time
// even while a fast-path hammer keeps stealing the word — the alpha's
// patience runs out, the bar closes the fast path, and the hammer's
// next release hands the word to the queue.
func TestFissileAntiStarvation(t *testing.T) {
	m := MustBuild(NameCNAFissile, testEnv(2), WithPatience(8))
	f := m.(*fissile.Lock)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := confThreads(2)[0]
		for !stop.Load() {
			// TryLock is the pure fast path: this goroutine barges
			// every time the word frees up, and never queues.
			if f.TryLock(th) {
				f.Unlock(th)
			}
			runtime.Gosched()
		}
	}()

	done := make(chan struct{})
	go func() {
		th := confThreads(2)[1]
		f.LockSlow(th, time.Time{}) // queue path by construction: no fast-path attempt
		f.Unlock(th)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("slow-path waiter starved behind the fast-path hammer")
	}
	stop.Store(true)
	wg.Wait()
}
