package kvserver

import (
	"runtime"
	"testing"
)

// TestStoreFootprintPerKey pins the shard store's heap cost: a
// prefilled 64Ki-key server must hold under 64 bytes of live heap per
// key, which leaves no room for a pointer-linked node per key.
func TestStoreFootprintPerKey(t *testing.T) {
	const keys = 64 << 10
	h0 := liveHeap()
	srv := New(Config{Shards: 2})
	for k := uint64(0); k < keys; k++ {
		srv.Put(k, k)
	}
	perKey := float64(liveHeap()-h0) / keys
	runtime.KeepAlive(srv)
	t.Logf("%.1f B of live heap per key", perKey)
	if perKey >= 64 {
		t.Fatalf("store footprint %.1f B/key, want < 64", perKey)
	}
}

// liveHeap forces a collection and returns the bytes of live heap.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
