package kvserver

// Reader-writer serving: shards built on "-rw" specs must serve Gets
// under genuinely parallel read holds, keep the drain-and-validate
// swap protocol sound on the read path, and fall back to the
// exclusive path on shards whose lock has no read side.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lockreg"
)

// TestRWShardSelection pins that "-rw" specs wire the read side up and
// plain specs do not.
func TestRWShardSelection(t *testing.T) {
	srv := New(testConfig(2, "cna-rw", "cna"))
	if srv.shards[0].cur.Load().rw == nil {
		t.Fatal("cna-rw shard has no read side")
	}
	if srv.shards[1].cur.Load().rw != nil {
		t.Fatal("cna shard grew a read side")
	}
	if names := srv.LockNames(); names[0] != "CNA-rw" || names[1] != "CNA" {
		t.Fatalf("LockNames = %v", names)
	}
	// The exclusive fallback on a non-RW shard.
	l, viaRead := srv.shards[1].acquire(true, time.Time{})
	if viaRead {
		t.Fatal("acquire reported a read hold on a lock without a read side")
	}
	l.release(viaRead)
}

// TestRWServeParallelReads pins end-to-end reader parallelism: on a
// "cna-rw" shard, all N read acquisitions are observed inside the
// shard at once — the property the whole RW construction exists for.
func TestRWServeParallelReads(t *testing.T) {
	const readers = 4
	srv := New(testConfig(1, "cna-rw"))
	sh := &srv.shards[0]

	var inside, high atomic.Int32
	deadline := time.Now().Add(5 * time.Second)
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l, viaRead := sh.acquire(true, time.Time{})
			if !viaRead {
				t.Error("acquire fell back to the exclusive path on an RW shard")
			}
			n := inside.Add(1)
			for {
				if h := high.Load(); n <= h || high.CompareAndSwap(h, n) {
					break
				}
			}
			for inside.Load() < readers && time.Now().Before(deadline) {
				runtime.Gosched()
				if h := inside.Load(); h > high.Load() {
					high.Store(h)
				}
			}
			l.release(viaRead)
		}()
	}
	wg.Wait()
	if got := high.Load(); got != readers {
		t.Fatalf("concurrent-reader high-water mark %d, want %d (reads serialized)", got, readers)
	}
	if free, capn := srv.PoolStats(); free != capn {
		t.Fatalf("pool %d/%d free after quiescence", free, capn)
	}
}

// TestRWReadPathRevalidates is TestAcquireRevalidates for the read
// path: a read hold taken on a swapped-out lock must fail validation
// and the retried acquisition must land on the current lock.
func TestRWReadPathRevalidates(t *testing.T) {
	srv := New(testConfig(1, "cna-rw"))
	sh := &srv.shards[0]
	old := sh.cur.Load()

	srv.SwapShard(0, lockreg.MustSpec("std-rw"))

	// Replaying acquire's read body from the stale pointer: the stale
	// read hold is grantable, but validation must reject it.
	old.rw.RLock()
	if sh.cur.Load() == old {
		t.Fatal("stale lock still advertised after the swap")
	}
	old.rw.RUnlock()

	held, viaRead := sh.acquire(true, time.Time{})
	if held == old {
		t.Fatal("acquire returned the swapped-out lock")
	}
	if !viaRead || held != sh.cur.Load() {
		t.Fatalf("acquire: viaRead=%v, current=%v", viaRead, held == sh.cur.Load())
	}
	held.release(viaRead)
}

// TestRWGetWithinDeadline drives the timed read path against a held
// writer: the request must shed with ErrDeadline, touch no data, and
// leak no slot; Put/Get resume once the writer leaves.
func TestRWGetWithinDeadline(t *testing.T) {
	srv := New(testConfig(1, "cna-rw"))
	sh := &srv.shards[0]
	srv.Put(7, 70)

	l, _ := sh.acquire(false, time.Time{}) // a writer camps on the shard
	if _, _, err := srv.GetWithin(7, 2*time.Millisecond); err != ErrDeadline {
		t.Fatalf("GetWithin under a camped writer: err = %v, want ErrDeadline", err)
	}
	l.m.Unlock()

	if v, ok, err := srv.GetWithin(7, time.Second); err != nil || !ok || v != 70 {
		t.Fatalf("GetWithin after release = %d,%v,%v", v, ok, err)
	}
	if free, capn := srv.PoolStats(); free != capn {
		t.Fatalf("pool %d/%d free after shed request", free, capn)
	}
}

// TestRWServeStorm is the mixed-serving hammer on RW shards: Gets
// under read holds race Puts and counted Updates across "cna-rw" and
// "std-rw" shards, with the same no-lost-updates counter check as the
// swap storm. Run under -race in CI.
func TestRWServeStorm(t *testing.T) {
	const (
		shards   = 2
		keySpace = 32
	)
	workers := 2 * runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	iters := 3000
	if testing.Short() {
		iters = 600
	}
	srv := New(testConfig(shards, "cna-rw", "std-rw"))

	inc := func(old uint64, ok bool) uint64 {
		if !ok {
			return 1
		}
		return old + 1
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := uint64((w*31 + i) % keySpace)
				switch i % 8 {
				case 0:
					srv.Update(key, inc) // the counted RMW: iters/8 per worker
				case 1:
					srv.Put(uint64(keySpace+w), uint64(i)) // disjoint key range
				default:
					srv.Get(key) // 75% reads — the RW sweet spot
				}
				if i%64 == 0 {
					runtime.Gosched()
				}
			}
		}(w)
	}
	wg.Wait()

	var perWorker uint64
	for i := 0; i < iters; i++ {
		if i%8 == 0 {
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
		t.Fatalf("counter sum = %d, want %d: updates lost or duplicated under read traffic", got, want)
	}
	if free, capn := srv.PoolStats(); free != capn {
		t.Fatalf("pool %d/%d free after quiescence", free, capn)
	}
}
