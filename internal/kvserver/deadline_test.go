package kvserver

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lockreg"
	"repro/internal/locks"
)

// TestGetPutWithinDeadline pins the timed request contract: a held
// shard lock makes *Within expire with ErrDeadline and no data touched,
// a non-positive budget degrades to a single probe, and a released lock
// admits the same requests.
func TestGetPutWithinDeadline(t *testing.T) {
	srv := New(testConfig(1, "cna"))
	srv.Put(42, 7)

	sh := srv.shardFor(42)
	l, _ := sh.acquire(false, time.Time{})

	if _, _, err := srv.GetWithin(42, 2*time.Millisecond); !errors.Is(err, ErrDeadline) {
		t.Fatalf("GetWithin under a held lock: err = %v, want ErrDeadline", err)
	}
	if err := srv.PutWithin(42, 99, 2*time.Millisecond); !errors.Is(err, ErrDeadline) {
		t.Fatalf("PutWithin under a held lock: err = %v, want ErrDeadline", err)
	}
	// Non-positive budget: one TryLock probe, immediate expiry.
	if _, _, err := srv.GetWithin(42, 0); !errors.Is(err, ErrDeadline) {
		t.Fatalf("GetWithin(d=0) under a held lock: err = %v, want ErrDeadline", err)
	}
	l.m.Unlock()

	v, ok, err := srv.GetWithin(42, 5*time.Second)
	if err != nil || !ok || v != 7 {
		t.Fatalf("GetWithin after release = (%d, %v, %v); the shed PutWithin must not have landed", v, ok, err)
	}
	if err := srv.PutWithin(42, 8, 5*time.Second); err != nil {
		t.Fatalf("PutWithin after release: %v", err)
	}
	if v, _ := srv.Get(42); v != 8 {
		t.Fatalf("value = %d after admitted PutWithin(8)", v)
	}
	if free, capn := srv.PoolStats(); free != capn {
		t.Fatalf("pool %d/%d free: expired admissions leaked slots", free, capn)
	}
}

// TestTimedRequestsAcrossSwaps drives GetWithin/PutWithin with generous
// budgets while shards swap policies under the traffic: a lost swap
// race must retry on the new lock within the original deadline, never
// surface a spurious ErrDeadline, and never lose an update.
func TestTimedRequestsAcrossSwaps(t *testing.T) {
	srv := New(testConfig(2, "cna"))
	const keys = 64
	for k := uint64(0); k < keys; k++ {
		srv.Put(k, 0)
	}

	var stop atomic.Bool
	var deadlineErrs atomic.Uint64
	var puts [4]uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(0); !stop.Load(); i++ {
				key := (uint64(w)*31 + i) % keys
				if i%2 == 0 {
					if _, _, err := srv.GetWithin(key, time.Second); err != nil {
						deadlineErrs.Add(1)
					}
				} else {
					if err := srv.PutWithin(key, i, time.Second); err != nil {
						deadlineErrs.Add(1)
					} else {
						puts[w]++
					}
				}
			}
		}(w)
	}

	rot := []lockreg.Spec{lockreg.MustSpec("std"), lockreg.MustSpec("mcs"), lockreg.MustSpec("cna")}
	for i := 0; i < 12; i++ {
		srv.SwapShard(i%srv.Shards(), rot[i%len(rot)])
		time.Sleep(2 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if n := deadlineErrs.Load(); n != 0 {
		t.Fatalf("%d one-second admissions expired during swaps: swap retries are burning the budget", n)
	}
	if srv.Epochs() < 12 {
		t.Fatalf("only %d swaps completed", srv.Epochs())
	}
	if free, capn := srv.PoolStats(); free != capn {
		t.Fatalf("pool %d/%d free after timed swap traffic", free, capn)
	}
}

// neverTimedLock admits untimed acquisitions normally but fails every
// timed one — a deterministic way to make the load generator's entire
// deadline path shed without real clock pressure.
type neverTimedLock struct {
	mu       sync.Mutex
	attempts *atomic.Uint64
}

func (l *neverTimedLock) Lock()         { l.mu.Lock() }
func (l *neverTimedLock) Unlock()       { l.mu.Unlock() }
func (l *neverTimedLock) TryLock() bool { return l.mu.TryLock() }
func (l *neverTimedLock) Name() string  { return "never-timed" }
func (l *neverTimedLock) LockTimeout(time.Duration) bool {
	l.attempts.Add(1)
	return false
}
func (l *neverTimedLock) LockContext(ctx context.Context) error {
	return locks.ContextLock(ctx, l)
}

var _ locks.NativeMutex = (*neverTimedLock)(nil)

// TestLoadgenShedsAndRetries installs a lock that rejects every timed
// admission, so each deadline-path request sheds after exactly
// MaxRetries+1 attempts. Pins the whole shed pipeline: the per-class
// shed counters, the all-shed result rows (zero ops, zero latency
// samples, neutral fairness), the Outcome total, and the retry knob via
// exact attempt accounting.
func TestLoadgenShedsAndRetries(t *testing.T) {
	var attempts atomic.Uint64
	cfg := testConfig(1, "cna")
	cfg.Locks = []lockreg.Spec{{
		Name: "never-timed",
		Native: func(lockreg.Env, ...lockreg.Option) locks.NativeMutex {
			return &neverTimedLock{attempts: &attempts}
		},
	}}
	srv := New(cfg)

	spec := shortLoad(0.99)
	spec.ReadFrac = 0.5
	spec.Prefill = false // prefill Puts are untimed, but keep the run pure
	spec.Label = "never-timed"
	spec.DeadlineFrac = 0.5
	spec.MaxRetries = 2
	spec.RetryBackoff = 10 * time.Microsecond
	out := Run(srv, spec)

	if out.Shed == 0 {
		t.Fatal("no requests shed against a lock that rejects every timed admission")
	}
	if got, want := attempts.Load(), out.Shed*uint64(spec.MaxRetries+1); got != want {
		t.Fatalf("timed attempts = %d, want shed %d x (MaxRetries+1) = %d: retry bound not honoured",
			got, out.Shed, want)
	}
	if len(out.Results) != 2 {
		t.Fatalf("all-shed run produced %d result rows, want both classes kept", len(out.Results))
	}
	var rowShed uint64
	for _, r := range out.Results {
		if r.TotalOps != 0 || r.LatencySamples != 0 || r.Throughput != 0 {
			t.Errorf("%s: shed requests leaked into ops accounting: %+v", r.OpClass, r)
		}
		if r.Shed == 0 {
			t.Errorf("%s: class row carries no shed count", r.OpClass)
		}
		if r.Fairness != 0.5 {
			t.Errorf("%s: fairness = %v on an all-shed row, want the neutral 0.5", r.OpClass, r.Fairness)
		}
		rowShed += r.Shed
	}
	if rowShed != out.Shed {
		t.Fatalf("per-class shed rows sum to %d, Outcome.Shed = %d", rowShed, out.Shed)
	}
}

// TestLoadgenDeadlinePathAdmits is the complement: generous budgets on
// a real lock admit everything — the timed path must not shed or lose
// hit accounting when there is no pressure.
func TestLoadgenDeadlinePathAdmits(t *testing.T) {
	srv := New(testConfig(4, "cna"))
	spec := shortLoad(0.99)
	spec.DeadlineFrac = 200 // 100ms budget on the 500µs get SLO
	spec.MaxRetries = 3
	out := Run(srv, spec)

	if out.Shed != 0 {
		t.Fatalf("%d requests shed with 100ms budgets and retries", out.Shed)
	}
	classes := map[string]uint64{}
	for _, r := range out.Results {
		if r.TotalOps == 0 {
			t.Errorf("%s: timed path recorded no ops", r.OpClass)
		}
		if r.LatencySamples != r.TotalOps {
			t.Errorf("%s: sampled %d of %d admitted ops", r.OpClass, r.LatencySamples, r.TotalOps)
		}
		classes[r.OpClass] = r.TotalOps
	}
	if out.GetHits != classes["get"] {
		t.Errorf("prefilled timed run: %d hits of %d gets", out.GetHits, classes["get"])
	}
	if free, capn := srv.PoolStats(); free != capn {
		t.Fatalf("pool %d/%d free after timed run", free, capn)
	}
}
