package lockreg

// The concurrency-restriction conformance storms: every registered
// *-cr spec is hammered with deliberately mixed acquisition paths —
// plain Lock (gate pass or cull, the gate decides), TryLock (gate
// bypass by contract), and jittered LockTimeout whose deadlines
// regularly expire while the caller sits culled on the passive list —
// with exact counter agreement at the end: every successful
// acquisition of any flavour incremented an unprotected counter
// exactly once, and an expired culled wait left no trace. A small
// active set and a tiny rotation period make the gate's slot churn
// (claims, grants, rotations, evictions, self-promotions) fire
// constantly instead of only at benchmark timescales; run under -race
// in CI this is the interleaving net for the admission protocol.

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/locknames"
	"repro/internal/locks/gcr"
)

// crSpecs returns every registered *-cr spec.
func crSpecs() []Spec {
	var out []Spec
	for _, spec := range All() {
		if strings.HasSuffix(spec.Name, locknames.CRSuffix) {
			out = append(out, spec)
		}
	}
	return out
}

func TestCRSpecsRegistered(t *testing.T) {
	if got := len(crSpecs()); got != 7 {
		t.Fatalf("registered %d CR specs, want 7", got)
	}
	// The derived spec resolves through the base's aliases too.
	if spec, ok := Lookup("cna-opt-cr"); !ok || spec.Name != NameCNAOptCR {
		t.Fatalf("Lookup(cna-opt-cr) = %+v, %v", spec, ok)
	}
	if spec, ok := Lookup("stdlib-cr"); !ok || spec.Name != NameStdCR {
		t.Fatalf("Lookup(stdlib-cr) = %+v, %v", spec, ok)
	}
}

// TestGCRConformanceStorm is the mixed-path hammer over every *-cr
// spec. Two admission slots for six workers keep the passive list
// populated; rotating every 32 departures exercises the grant path
// throughout instead of once per storm. The timed workers' 0–6µs
// deadlines expire at every protocol stage — while culled, while
// parked mid-quantum, while a grant is in flight — and the exact
// counter agreement plus the post-quiescence TryLock prove no expiry
// ever left half an admission behind.
func TestGCRConformanceStorm(t *testing.T) {
	for _, spec := range crSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			const workers = 6
			iters := confIters(t) / 2
			m := spec.Build(testEnv(workers), WithActiveSet(2), WithRotateEvery(32))
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
						case 0: // plain Lock: admitted or culled, the gate decides
							m.Lock(th)
						case 1: // TryLock: gate bypass, spin it in
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
			// The lock must be fully released and the gate unable to block
			// a fresh TryLock: no stuck inner state, no leaked admission.
			if !m.TryLock(ths[0]) {
				t.Fatalf("%s: lock not free after quiescence (leaked admission or lost unlock)", spec.Name)
			}
			m.Unlock(ths[0])
			t.Logf("%s: %d acquisitions, %d timed expiries", spec.Name, acquired.Load(), expiries.Load())
		})
	}
}

// TestGCRStatsAgree cross-checks the gate's opt-in counters against
// ground truth: every gated acquisition passes exactly one of the
// admitted/culled tallies, and at quiescence the passive list has
// fully drained.
func TestGCRStatsAgree(t *testing.T) {
	const workers = 4
	iters := confIters(t) / 2
	m := MustBuild(NameCNACR, testEnv(workers), WithStats(true), WithActiveSet(2), WithRotateEvery(32))
	g := m.(*gcr.Lock)
	ths := confThreads(workers)

	var acquired atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := ths[w]
			for i := 0; i < iters; i++ {
				m.Lock(th)
				acquired.Add(1)
				m.Unlock(th)
			}
		}(w)
	}
	wg.Wait()
	st := g.Stats()
	if st.Admitted+st.Culled != acquired.Load() {
		t.Fatalf("stats classify %d+%d gate passages, ground truth %d",
			st.Admitted, st.Culled, acquired.Load())
	}
	if p := g.Passive(); p != 0 {
		t.Fatalf("passive list holds %d waiters after quiescence, want 0", p)
	}
	t.Logf("admitted %d, culled %d, granted %d, rotations %d, evictions %d, promotions %d",
		st.Admitted, st.Culled, st.Granted, st.Rotations, st.Evictions, st.Promotions)
}

// TestGCRRotationFairness pins the long-term-fairness guarantee: with
// a single admission slot and a tiny rotation period, four workers all
// complete a fixed acquisition budget — a starved passive waiter would
// hang the test — and the gate demonstrably rotated membership rather
// than letting the first claimant monopolize the slot.
func TestGCRRotationFairness(t *testing.T) {
	const workers = 4
	iters := confIters(t) / 4
	m := MustBuild(NameCNACR, testEnv(workers), WithStats(true), WithActiveSet(1), WithRotateEvery(4))
	g := m.(*gcr.Lock)
	ths := confThreads(workers)

	counts := make([]atomic.Int64, workers)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := ths[w]
			for i := 0; i < iters; i++ {
				m.Lock(th)
				counts[w].Add(1)
				m.Unlock(th)
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		progress := make([]int64, workers)
		for w := range counts {
			progress[w] = counts[w].Load()
		}
		t.Fatalf("a passive waiter starved: per-worker progress %v of %d", progress, iters)
	}
	st := g.Stats()
	if st.Rotations+st.Evictions+st.Promotions == 0 {
		t.Fatalf("membership never moved (rotations %d, evictions %d, promotions %d) with %d workers on 1 slot",
			st.Rotations, st.Evictions, st.Promotions, workers)
	}
	if st.Granted+st.Promotions == 0 {
		t.Fatalf("no passive waiter was ever admitted (granted %d, promotions %d)", st.Granted, st.Promotions)
	}
	t.Logf("rotations %d, evictions %d, promotions %d, granted %d",
		st.Rotations, st.Evictions, st.Promotions, st.Granted)
}

// TestGCRSingleProcLiveness runs a small plain-Lock storm for every
// *-cr spec on one scheduler proc: with GOMAXPROCS=1 nothing makes
// progress unless every wait in the protocol — culled parks, inner
// queue spins, grant wakes — yields to the scheduler. A stuck spin
// anywhere hangs the test.
func TestGCRSingleProcLiveness(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, spec := range crSpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			const workers, iters = 4, 200
			m := spec.Build(testEnv(workers), WithActiveSet(1), WithRotateEvery(8))
			ths := confThreads(workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					th := ths[w]
					for i := 0; i < iters; i++ {
						m.Lock(th)
						m.Unlock(th)
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// TestGCRTimedExpiryNoTrace pins the culled timed path's contract: a
// waiter whose deadline expires on the passive list returns false
// having touched nothing — no admission slot consumed, no passive
// node leaked, no inner-lock state — and both the former holder and
// fresh threads proceed as if it never arrived.
func TestGCRTimedExpiryNoTrace(t *testing.T) {
	ths := confThreads(3)
	m := MustBuild(NameStdCR, testEnv(3), WithStats(true), WithActiveSet(1))
	g := m.(*gcr.Lock)

	g.Lock(ths[0]) // owns the only slot and holds the inner lock
	res := make(chan bool)
	go func() {
		// 3ms: longer than nothing, shorter than the park quantum budget
		// that could let the waiter promote itself past a live owner.
		res <- g.LockTimeout(ths[1], 3*time.Millisecond)
	}()
	if got := <-res; got {
		t.Fatal("culled LockTimeout returned true with the gate and inner lock both held")
	}
	if p := g.Passive(); p != 0 {
		t.Fatalf("expired waiter left %d passive entries, want 0", p)
	}
	st := g.Stats()
	if st.Expired != 1 || st.Granted != 0 {
		t.Fatalf("expiry accounting: expired %d (want 1), granted %d (want 0)", st.Expired, st.Granted)
	}
	// The holder is undisturbed: release, reacquire, release.
	g.Unlock(ths[0])
	g.Lock(ths[0])
	g.Unlock(ths[0])
	// A fresh thread sees a free lock.
	if !g.TryLock(ths[2]) {
		t.Fatal("lock not free for a fresh thread after an expired culled wait")
	}
	g.Unlock(ths[2])
}
