package kvserver

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/lockreg"
	"repro/internal/locks"
	"repro/internal/numa"
)

func testConfig(shards int, lockNames ...string) Config {
	specs := make([]lockreg.Spec, len(lockNames))
	for i, n := range lockNames {
		specs[i] = lockreg.MustSpec(n)
	}
	return Config{
		Shards:       shards,
		Locks:        specs,
		Env:          lockreg.Env{Topology: numa.TwoSocketXeonE5()},
		PoolCapacity: 8,
	}
}

// TestShardStride pins the shard padding: shards sit back to back in
// one slice, so a size that is not a multiple of the cache line would
// let neighbouring shards' lock pointers false-share.
func TestShardStride(t *testing.T) {
	if size := unsafe.Sizeof(shard{}); size%64 != 0 {
		t.Fatalf("unsafe.Sizeof(shard{}) = %d, want a multiple of 64", size)
	}
}

func TestServerPutGetAcrossShards(t *testing.T) {
	srv := New(testConfig(4, "cna"))
	const n = 2000 // enough keys to land on every shard
	for k := uint64(0); k < n; k++ {
		srv.Put(k, k*7)
	}
	for k := uint64(0); k < n; k++ {
		if v, ok := srv.Get(k); !ok || v != k*7 {
			t.Fatalf("Get(%d) = %d,%v want %d", k, v, ok, k*7)
		}
	}
	if _, ok := srv.Get(n + 5); ok {
		t.Fatal("found absent key")
	}
	if got := srv.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
}

func TestServerUpdateReadModifyWrite(t *testing.T) {
	srv := New(testConfig(2, "mcs"))
	inc := func(old uint64, ok bool) uint64 {
		if !ok {
			return 1
		}
		return old + 1
	}
	for i := 0; i < 5; i++ {
		srv.Update(9, inc)
	}
	if v, ok := srv.Get(9); !ok || v != 5 {
		t.Fatalf("after 5 increments: %d,%v", v, ok)
	}
}

// TestUpdatePanicReleasesShard pins that a panicking Update callback
// neither wedges its shard nor leaks a slot: once the panic is
// recovered, a bounded Get on the same shard must be admitted and the
// slot pool must be whole again.
func TestUpdatePanicReleasesShard(t *testing.T) {
	for _, name := range []string{"cna", "cna-rw", "std", "cna-fissile"} {
		t.Run(name, func(t *testing.T) {
			srv := New(testConfig(1, name))
			srv.Put(3, 30)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("Update swallowed its callback's panic")
					}
				}()
				srv.Update(3, func(uint64, bool) uint64 { panic("callback fault") })
			}()
			if v, ok, err := srv.GetWithin(3, 50*time.Millisecond); err != nil || !ok || v != 30 {
				t.Errorf("GetWithin after a recovered Update panic = %d,%v,%v; want 30,true,nil", v, ok, err)
			}
			if free, capacity := srv.PoolStats(); free != capacity {
				t.Errorf("pool free = %d of %d after a recovered Update panic", free, capacity)
			}
		})
	}
}

// noLock excludes nothing, standing in for a broken shard lock.
type noLock struct{}

func (noLock) Lock()                             {}
func (noLock) TryLock() bool                     { return true }
func (noLock) Unlock()                           {}
func (noLock) Name() string                      { return "none" }
func (noLock) LockTimeout(time.Duration) bool    { return true }
func (noLock) LockContext(context.Context) error { return nil }

// TestBrokenLockLosesUpdatesWithoutAbort pins the store property that
// keeps a mutual-exclusion failure checkable: Get and Update on
// existing keys never write the shard's map, so two goroutines racing
// under a do-nothing lock lose increments (which a counter check
// reports) instead of tripping the runtime's concurrent map access
// abort, and without a data race on the value words under -race.
func TestBrokenLockLosesUpdatesWithoutAbort(t *testing.T) {
	spec := lockreg.Spec{
		Name: "none",
		Native: func(lockreg.Env, ...lockreg.Option) locks.NativeMutex {
			return noLock{}
		},
	}
	const keys, perWorker = 8, 200000
	srv := New(Config{Shards: 2, Locks: []lockreg.Spec{spec}})
	for k := uint64(0); k < keys; k++ {
		srv.Put(k, 0)
	}
	inc := func(old uint64, _ bool) uint64 { return old + 1 }
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < perWorker; i++ {
				srv.Update(uint64(i%keys), inc)
				srv.Get(uint64((i + 3) % keys))
			}
		}()
	}
	close(start)
	wg.Wait()
	var sum uint64
	for k := uint64(0); k < keys; k++ {
		v, _ := srv.Get(k)
		sum += v
	}
	if sum > 2*perWorker {
		t.Fatalf("counter sum %d exceeds the %d Updates issued", sum, 2*perWorker)
	}
	if srv.Len() != keys {
		t.Fatalf("Len() = %d, want %d", srv.Len(), keys)
	}
	t.Logf("GOMAXPROCS=%d: %d of %d increments lost", runtime.GOMAXPROCS(0), 2*perWorker-sum, 2*perWorker)
}

func TestPerShardLockSelection(t *testing.T) {
	srv := New(testConfig(4, "cna", "std"))
	want := []string{"CNA", "std", "CNA", "std"}
	got := srv.LockNames()
	if len(got) != len(want) {
		t.Fatalf("LockNames len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shard %d lock = %q, want %q (round-robin)", i, got[i], want[i])
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	srv := New(Config{})
	if srv.Shards() != 1 {
		t.Fatalf("default shards = %d", srv.Shards())
	}
	if names := srv.LockNames(); names[0] != "CNA" {
		t.Fatalf("default lock = %q, want CNA", names[0])
	}
	srv.Put(1, 2)
	if v, ok := srv.Get(1); !ok || v != 2 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
}

func TestSwapShardInstallsNewLock(t *testing.T) {
	srv := New(testConfig(2, "cna"))
	srv.Put(42, 1)
	if e := srv.SwapShard(0, lockreg.MustSpec("std")); e != 1 {
		t.Fatalf("epoch after first swap = %d", e)
	}
	names := srv.LockNames()
	if names[0] != "std" || names[1] != "CNA" {
		t.Fatalf("locks after SwapShard(0) = %v", names)
	}
	// Data survives the swap and remains reachable under the new lock.
	if v, ok := srv.Get(42); !ok || v != 1 {
		t.Fatalf("Get(42) after swap = %d,%v", v, ok)
	}
	if n := srv.SwapAll(lockreg.MustSpec("mcs-park")); n != 3 { // shard 0 swapped twice, shard 1 once
		t.Fatalf("Epochs after SwapAll = %d, want 3", n)
	}
	for i, n := range srv.LockNames() {
		if n != "MCS-park" {
			t.Fatalf("shard %d = %q after SwapAll", i, n)
		}
	}
	if free, capn := srv.PoolStats(); free != capn {
		t.Fatalf("pool %d/%d free after swaps (slot leak)", free, capn)
	}
}

func TestSwapShardOutOfRangePanics(t *testing.T) {
	srv := New(testConfig(2, "cna"))
	defer func() {
		if recover() == nil {
			t.Fatal("SwapShard(7) on a 2-shard server did not panic")
		}
	}()
	srv.SwapShard(7, lockreg.MustSpec("std"))
}

// TestConcurrentSwappers hammers SwapShard from several goroutines
// while traffic runs: swap serialization (swapMu) must keep the
// drain-and-validate protocol sound no matter how swaps interleave.
func TestConcurrentSwappers(t *testing.T) {
	srv := New(testConfig(2, "cna"))
	rotation := []lockreg.Spec{
		lockreg.MustSpec("std"),
		lockreg.MustSpec("mcs"),
		lockreg.MustSpec("cna"),
	}
	iters := 300
	if testing.Short() {
		iters = 60
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				srv.SwapShard(i%2, rotation[(w+i)%len(rotation)])
			}
		}(w)
	}
	var traffic sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		traffic.Add(1)
		go func(w int) {
			defer traffic.Done()
			for k := uint64(0); ; k++ {
				select {
				case <-done:
					return
				default:
					srv.Put(k%64, k)
					srv.Get(k % 64)
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	traffic.Wait()
	if got := srv.Epochs(); got != uint64(3*iters) {
		t.Fatalf("Epochs = %d, want %d (a swap was lost or doubled)", got, 3*iters)
	}
	if free, capn := srv.PoolStats(); free != capn {
		t.Fatalf("pool %d/%d free after quiescence", free, capn)
	}
}
