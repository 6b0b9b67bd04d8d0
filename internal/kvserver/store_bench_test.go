package kvserver

import (
	"testing"

	"repro/internal/prng"
)

// Store-layer benchmarks: one goroutine issuing point requests against
// a prefilled server, so a store or lock change can be sized in seconds
// with `go test -bench Server ./internal/kvserver`. Two shapes mirror
// the serving benchmark's workloads: cold (1Mi keys over 256 shards,
// the store far beyond L2) and hot (64Ki keys over 2 shards).

var (
	sinkValue uint64
	sinkFound bool
)

type storeShape struct {
	name   string
	keys   int
	shards int
}

var storeShapes = []storeShape{
	{"cold-1Mi-256sh", 1 << 20, 256},
	{"hot-64Ki-2sh", 64 << 10, 2},
}

// prefilled caches one built server per shape across sub-benchmark
// reruns, since the cold prefill dominates a short benchmark.
var prefilled = map[string]*Server{}

func benchServer(s storeShape) *Server {
	if srv, ok := prefilled[s.name]; ok {
		return srv
	}
	srv := New(Config{Shards: s.shards})
	for k := 0; k < s.keys; k++ {
		srv.Put(uint64(k), uint64(k))
	}
	prefilled[s.name] = srv
	return srv
}

// uniformKeys draws one uniform key per server key, so a benchmark loop
// cycles over them without paying for a PRNG per request.
func uniformKeys(n int) []uint64 {
	r := prng.New(uint64(n))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(r.Intn(n))
	}
	return keys
}

func BenchmarkServerGet(b *testing.B) {
	for _, s := range storeShapes {
		b.Run(s.name, func(b *testing.B) {
			srv, keys := benchServer(s), uniformKeys(s.keys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkValue, sinkFound = srv.Get(keys[i%len(keys)])
			}
		})
	}
}

func BenchmarkServerUpdate(b *testing.B) {
	incr := func(old uint64, _ bool) uint64 { return old + 1 }
	for _, s := range storeShapes {
		b.Run(s.name, func(b *testing.B) {
			srv, keys := benchServer(s), uniformKeys(s.keys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkValue = srv.Update(keys[i%len(keys)], incr)
			}
		})
	}
}
