package minikv_test

// A -race storm over the miniature leveldb with every lock — the
// global DB mutex and each sharded-LRU shard lock — served by
// goroutine-native adapters that share one deliberately undersized
// Thread-slot pool. With more workers than slots, adapters constantly
// block on slot claims and hand slots between goroutines mid-flight;
// the storm pins that the DB's locking shape (mutex-protected memtable
// writes, ref-counted version snapshots, per-shard LRU latching) stays
// sound when its mutexes are pool-backed instead of thread-pinned, and
// that every claimed slot is returned once the storm quiesces.

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/gonative"
	"repro/internal/lockreg"
	"repro/internal/locks"
	"repro/internal/minikv"
	"repro/internal/numa"
)

// paperAdapter presents a NativeMutex as the paper-style locks.Mutex
// that minikv.DB expects. The *locks.Thread argument is ignored: the
// go-native adapter claims its own slot per acquisition, which is
// exactly the property under test (no goroutine↔thread pinning).
type paperAdapter struct {
	m locks.NativeMutex
}

func (a paperAdapter) Lock(*locks.Thread)         { a.m.Lock() }
func (a paperAdapter) TryLock(*locks.Thread) bool { return a.m.TryLock() }
func (a paperAdapter) Unlock(*locks.Thread)       { a.m.Unlock() }
func (a paperAdapter) Name() string               { return a.m.Name() }

func (a paperAdapter) LockTimeout(_ *locks.Thread, d time.Duration) bool {
	return a.m.LockTimeout(d)
}

func TestGonativeStormOversubscribedPool(t *testing.T) {
	const (
		poolSlots   = 3 // far fewer than workers: every path contends for slots
		cacheShards = 4
		keySpace    = 512
	)
	workers := 2 * runtime.GOMAXPROCS(0)
	if workers < 8 {
		workers = 8
	}
	iters := 3000
	if testing.Short() {
		iters = 600
	}

	env := lockreg.Env{Topology: numa.TwoSocketXeonE5(), MaxThreads: poolSlots}
	pool := gonative.NewPool(poolSlots, env.Topology)
	mk := func(name string) locks.Mutex {
		return paperAdapter{m: gonative.WrapWithPool(lockreg.MustSpec(name), env, pool)}
	}
	db := minikv.Open(minikv.Options{
		GlobalLock:    mk("cna"),
		CacheShards:   cacheShards,
		CacheCapacity: 64,
		MkShardLock:   func() locks.Mutex { return mk("mcs-park") },
	})

	// minikv's API still takes a *locks.Thread for its own bookkeeping
	// (RNG etc.); the adapters ignore it, so IDs past the pool size are
	// fine and prove no per-thread state is consulted for locking.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := locks.NewThread(w, w%2)
			for i := 0; i < iters; i++ {
				key := uint64((w*61 + i) % keySpace)
				if i%4 == 0 {
					// Disjoint per-worker key ranges: lost writes are
					// detectable exactly.
					db.Put(th, uint64(keySpace+w*iters+i), uint64(i))
				} else {
					db.Get(th, key)
				}
				if i%128 == 0 {
					runtime.Gosched()
				}
			}
		}(w)
	}
	wg.Wait()

	th := locks.NewThread(0, 0)
	for w := 0; w < workers; w++ {
		for i := 0; i < iters; i += 4 {
			key := uint64(keySpace + w*iters + i)
			if v, ok := db.Get(th, key); !ok || v != uint64(i) {
				t.Fatalf("lost write under slot pressure: key %d = %d,%v want %d", key, v, ok, i)
			}
		}
	}
	if refs := db.Refs(th); refs != 1 {
		t.Fatalf("version refs = %d after quiescence, want 1", refs)
	}
	if free := pool.Free(); free != poolSlots {
		t.Fatalf("pool %d/%d free after quiescence (leaked slots)", free, poolSlots)
	}
}
