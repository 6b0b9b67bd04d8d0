package kvserver

// The live-policy-swap storm: the acceptance test of the swap
// protocol. Workers run a mixed Get/Put/Update storm over a small,
// deliberately hot key space while the main goroutine swaps every
// shard's lock through a rotation of registry policies (queue locks,
// parked variants, the stdlib baseline) at least eight times. Every
// Update is a counter increment performed under the shard lock, so the
// final sum over all keys counter-checks the protocol: a window where
// two locks were live would let two increments interleave and lose
// one; a double-granted critical section could duplicate one. Run
// under -race in CI (go test -race -short).

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/lockreg"
)

func TestSwapStormNoLostUpdates(t *testing.T) {
	const (
		shards   = 4
		keySpace = 64 // few keys → every shard lock stays hot
		minSwaps = 8
	)
	workers := 2 * runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	iters := 4000
	if testing.Short() {
		iters = 800
	}

	srv := New(testConfig(shards, "cna"))
	rotation := []lockreg.Spec{
		lockreg.MustSpec("std"),
		lockreg.MustSpec("mcs-park"),
		lockreg.MustSpec("cna-rw"), // reader-writer shard mid-rotation
		lockreg.MustSpec("cna"),
		lockreg.MustSpec("c-bo-mcs"),
	}

	inc := func(old uint64, ok bool) uint64 {
		if !ok {
			return 1
		}
		return old + 1
	}

	var wg sync.WaitGroup
	stormDone := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := uint64((w*31 + i) % keySpace)
				switch i % 4 {
				case 0, 1:
					// The counted RMW: exactly iters/2 increments per worker
					// (i%4 hits 0 and 1 half the time).
					srv.Update(key, inc)
				case 2:
					srv.Get(key)
				default:
					// Writes to a disjoint key range, so they can never
					// clobber a counter.
					srv.Put(uint64(keySpace+w), uint64(i))
				}
				if i%64 == 0 {
					runtime.Gosched() // migrate mid-storm
				}
			}
		}(w)
	}

	// Swap under load: every shard, whole-rotation sweeps, until the
	// storm ends — but at least minSwaps per-shard generations even if
	// the storm finishes first.
	go func() {
		wg.Wait()
		close(stormDone)
	}()
	swept := 0
	for {
		srv.SwapAll(rotation[swept%len(rotation)])
		swept++
		select {
		case <-stormDone:
		default:
			time.Sleep(time.Millisecond)
			continue
		}
		if swept >= minSwaps {
			break
		}
	}
	wg.Wait()

	if got, want := srv.Epoch(0), uint64(minSwaps); got < want {
		t.Fatalf("only %d swaps per shard, want >= %d", got, want)
	}

	// Counter-check: increments land on keys [0, keySpace); each worker
	// performed one on every iteration with i%4 in {0,1}.
	var perWorker uint64
	for i := 0; i < iters; i++ {
		if i%4 <= 1 {
			perWorker++
		}
	}
	want := perWorker * uint64(workers)
	var got uint64
	for k := uint64(0); k < keySpace; k++ {
		if v, ok := srv.Get(k); ok {
			got += v
		}
	}
	if got != want {
		t.Fatalf("counter sum = %d, want %d: %d updates lost or duplicated across %d swaps",
			got, want, int64(want)-int64(got), srv.Epochs())
	}
	if free, capn := srv.PoolStats(); free != capn {
		t.Fatalf("pool %d/%d free after quiescence (slot leak across swaps)", free, capn)
	}
}

// TestSwapDrainsHolder pins the drain property in isolation: a swap
// issued while a request holds the shard lock must not complete until
// the holder releases, and the post-swap lock must be immediately
// usable.
func TestSwapDrainsHolder(t *testing.T) {
	srv := New(testConfig(1, "cna"))
	sh := &srv.shards[0]

	l, _ := sh.acquire(false, time.Time{}) // stand in for a request mid-critical-section
	swapped := make(chan uint64)
	go func() { swapped <- srv.SwapShard(0, lockreg.MustSpec("std")) }()

	select {
	case <-swapped:
		t.Fatal("swap completed while a request held the shard lock")
	case <-time.After(20 * time.Millisecond):
	}
	l.m.Unlock()
	if e := <-swapped; e != 1 {
		t.Fatalf("epoch = %d", e)
	}
	srv.Put(5, 50)
	if v, ok := srv.Get(5); !ok || v != 50 {
		t.Fatalf("post-swap Get = %d,%v", v, ok)
	}
}

// TestAcquireRevalidates white-boxes the retry: a request that loaded
// the lock pointer before a swap and acquired the stale lock after it
// must fail validation, release the stale lock, and land on the new
// one.
func TestAcquireRevalidates(t *testing.T) {
	srv := New(testConfig(1, "std"))
	sh := &srv.shards[0]
	old := sh.cur.Load()

	// The request loaded `old`... then a full swap completed before its
	// Lock call (acquire's exact race window).
	srv.SwapShard(0, lockreg.MustSpec("mcs"))

	// Replaying acquire's body from the stale pointer: the stale lock
	// is acquirable (the swapper released it), but validation must
	// reject it — holding it no longer guards shard data.
	old.m.Lock()
	if sh.cur.Load() == old {
		t.Fatal("stale lock still advertised after the swap")
	}
	old.m.Unlock()

	// The real acquire lands on the current lock.
	held, _ := sh.acquire(false, time.Time{})
	if held == old {
		t.Fatal("acquire returned the swapped-out lock")
	}
	if held != sh.cur.Load() {
		t.Fatal("acquire holds a lock that is not the current one")
	}
	held.m.Unlock()
}
