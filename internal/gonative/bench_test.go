package gonative

// Adapter-cost microbenchmarks: go-native Lock/Unlock through a private
// pool (Wrap) and through a pool shared with other adapters
// (WrapWithPool, the kvserver configuration), uncontended from one
// goroutine and contended from GOMAXPROCS goroutines. The plain rows
// drive CNA with Lock; the Timed rows acquire with LockTimeout under
// the serving benchmark's 5µs hot-deadline budget, and the Fissile rows
// drive CNA-fissile, whose contended rows take the slow path. Run with
//
//	go test -run XXX -bench Native ./internal/gonative

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lockreg"
)

// timedBudget is the hot-deadline workload's per-request budget.
const timedBudget = 5 * time.Microsecond

func benchPrivate(spec string) *Mutex {
	return Wrap(lockreg.MustSpec(spec), testEnv(DefaultCapacity())).(*Mutex)
}

func benchShared(spec string) *Mutex {
	env := testEnv(DefaultCapacity())
	return WrapWithPool(lockreg.MustSpec(spec), env, NewPool(env.MaxThreads, env.Topology))
}

// benchAcquire takes m with Lock, or with LockTimeout(timedBudget) when
// timed; false means the timed acquire expired.
func benchAcquire(m *Mutex, timed bool) bool {
	if timed {
		return m.LockTimeout(timedBudget)
	}
	m.Lock()
	return true
}

func benchUncontended(b *testing.B, m *Mutex, timed bool) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchAcquire(m, timed) {
			m.Unlock()
		}
	}
}

// benchContended reports the share of timed acquires that expired as
// expired/op (always 0 for Lock).
func benchContended(b *testing.B, m *Mutex, timed bool) {
	b.ReportAllocs()
	b.ResetTimer()
	var expired atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		n := int64(0)
		for pb.Next() {
			if benchAcquire(m, timed) {
				m.Unlock()
			} else {
				n++
			}
		}
		expired.Add(n)
	})
	b.ReportMetric(float64(expired.Load())/float64(b.N), "expired/op")
}

func BenchmarkNativeUncontendedPrivate(b *testing.B) {
	benchUncontended(b, benchPrivate("cna"), false)
}
func BenchmarkNativeUncontendedShared(b *testing.B) { benchUncontended(b, benchShared("cna"), false) }
func BenchmarkNativeContendedPrivate(b *testing.B)  { benchContended(b, benchPrivate("cna"), false) }
func BenchmarkNativeContendedShared(b *testing.B)   { benchContended(b, benchShared("cna"), false) }

func BenchmarkNativeUncontendedSharedTimed(b *testing.B) {
	benchUncontended(b, benchShared("cna"), true)
}
func BenchmarkNativeContendedSharedTimed(b *testing.B) { benchContended(b, benchShared("cna"), true) }

func BenchmarkNativeUncontendedSharedFissile(b *testing.B) {
	benchUncontended(b, benchShared("cna-fissile"), false)
}
func BenchmarkNativeContendedSharedFissile(b *testing.B) {
	benchContended(b, benchShared("cna-fissile"), false)
}
func BenchmarkNativeUncontendedSharedFissileTimed(b *testing.B) {
	benchUncontended(b, benchShared("cna-fissile"), true)
}
func BenchmarkNativeContendedSharedFissileTimed(b *testing.B) {
	benchContended(b, benchShared("cna-fissile"), true)
}
