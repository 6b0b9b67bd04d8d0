package gonative

// Adapter-cost microbenchmarks: go-native CNA Lock/Unlock through a
// private pool (Wrap) and through a pool shared with other adapters
// (WrapWithPool, the kvserver configuration), uncontended from one
// goroutine and contended from GOMAXPROCS goroutines. Run with
//
//	go test -run XXX -bench Native ./internal/gonative

import (
	"testing"

	"repro/internal/lockreg"
)

func benchPrivate() *Mutex {
	return Wrap(lockreg.MustSpec("cna"), testEnv(DefaultCapacity())).(*Mutex)
}

func benchShared() *Mutex {
	env := testEnv(DefaultCapacity())
	return WrapWithPool(lockreg.MustSpec("cna"), env, NewPool(env.MaxThreads, env.Topology))
}

func benchUncontended(b *testing.B, m *Mutex) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Lock()
		m.Unlock()
	}
}

func benchContended(b *testing.B, m *Mutex) {
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.Lock()
			m.Unlock()
		}
	})
}

func BenchmarkNativeUncontendedPrivate(b *testing.B) { benchUncontended(b, benchPrivate()) }
func BenchmarkNativeUncontendedShared(b *testing.B)  { benchUncontended(b, benchShared()) }
func BenchmarkNativeContendedPrivate(b *testing.B)   { benchContended(b, benchPrivate()) }
func BenchmarkNativeContendedShared(b *testing.B)    { benchContended(b, benchShared()) }
