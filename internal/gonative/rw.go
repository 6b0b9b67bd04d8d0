package gonative

// The reader-writer face of the adapter: NewRW("cna-rw") returns a
// locks.NativeRWMutex — the sync.RWMutex method shape — over any
// registered RW lock, reusing the same thread-slot pool as the mutex
// adapter. The writer side is a Mutex over the same lock. The read
// side cannot use a single holder field — many goroutines hold the
// lock together, and sync.RWMutex semantics let a different goroutine
// RUnlock a hold — so the Threads holding reads are kept in a bitmap
// of the pool's layout: RLock adds the Thread it read-locked with,
// RUnlock takes any one and releases the read hold on it. Which thread
// retires which hold is immaterial to the inner lock (read holds are
// counted, not owned); what matters is that every added Thread is
// RUnlocked exactly once, so each per-socket read indicator sees its
// increments and decrements in matched pairs.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/locknames"
	"repro/internal/lockreg"
	"repro/internal/locks"
)

// RWMutex adapts a registered RW lock to the goroutine-native
// reader-writer contract. Build one with NewRW (or WrapRW); the zero
// value is not usable, and an RWMutex must not be copied after first
// use. Its writer side — Lock, TryLock, LockTimeout, LockContext,
// Unlock — is the embedded Mutex over the same lock.
type RWMutex struct {
	Mutex
	rw      locks.RWMutex
	readers bitmap // the Threads holding reads
}

// RLock implements locks.NativeRWMutex: claim a slot, take the read
// hold on it, and add it to the readers for whichever goroutine
// RUnlocks.
func (m *RWMutex) RLock() { m.racquire(time.Time{}) }

// RUnlock implements locks.NativeRWMutex: retire any one in-flight
// read hold (read holds are counted, not owned — sync.RWMutex
// semantics) and free its slot.
func (m *RWMutex) RUnlock() {
	th := m.readers.take()
	if th == nil {
		panic("gonative: RUnlock of an un-read-locked " + m.rw.Name())
	}
	m.rw.RUnlock(th)
	m.pool.free.add(th)
}

// TryRLock implements locks.NativeRWMutex: fails cleanly when no slot
// is free or the inner admission is refused.
func (m *RWMutex) TryRLock() bool { return m.racquire(locks.NoWait) }

// RLockTimeout implements locks.NativeRWMutex: one TryRLock before the
// clock is read (a non-positive d stops there), then slot claim and
// inner admission share one deadline, as in Mutex.LockTimeout.
func (m *RWMutex) RLockTimeout(d time.Duration) bool {
	return m.TryRLock() || d > 0 && m.racquire(time.Now().Add(d))
}

// racquire is the read side's one acquire path, the analogue of
// Mutex.acquire.
func (m *RWMutex) racquire(deadline time.Time) bool {
	th := m.pool.claim(deadline)
	if th == nil {
		return false
	}
	if !locks.RLockUntil(m.rw, th, deadline) {
		m.pool.free.add(th)
		return false
	}
	m.readers.add(th)
	return true
}

// RLocker implements locks.NativeRWMutex: a sync.Locker over the read
// side, mirroring sync.RWMutex.RLocker.
func (m *RWMutex) RLocker() sync.Locker { return rlocker{m} }

type rlocker struct{ m *RWMutex }

func (r rlocker) Lock()   { r.m.RLock() }
func (r rlocker) Unlock() { r.m.RUnlock() }

// Inner exposes the adapted RW lock (see Mutex.Inner for the caveats).
func (m *RWMutex) Inner() locks.RWMutex { return m.rw }

// notRWError explains a non-RW spec handed to the RW builder, naming
// the registered "-rw" variant when one exists.
func notRWError(spec lockreg.Spec) error {
	if rwName := spec.Name + locknames.RWSuffix; !spec.RW {
		if _, ok := lockreg.Lookup(rwName); ok {
			return fmt.Errorf("gonative: %q has no read side (its reader-writer form is %q)", spec.Name, rwName)
		}
	}
	return fmt.Errorf("gonative: %q has no read side", spec.Name)
}

// NewRW builds the named registered lock in goroutine-native
// reader-writer form: the algorithm's own native build when the Spec
// has an RW one (std-rw), otherwise the Spec's RW lock wrapped in the
// slot-pool adapter. Non-RW names are an error that points at the
// registered "-rw" variant.
func NewRW(name string, env lockreg.Env, opts ...lockreg.Option) (locks.NativeRWMutex, error) {
	spec, ok := lockreg.Lookup(name)
	if !ok {
		return nil, lockreg.UnknownLockError(name)
	}
	return WrapRW(spec, env, opts...)
}

// MustNewRW is NewRW for statically known names; it panics on unknown
// or non-RW ones.
func MustNewRW(name string, env lockreg.Env, opts ...lockreg.Option) locks.NativeRWMutex {
	m, err := NewRW(name, env, opts...)
	if err != nil {
		panic(err)
	}
	return m
}

// WrapRW builds spec in goroutine-native RW form (see NewRW) with a
// private slot pool. The pool bounds concurrent acquisitions of both
// kinds together: readers beyond the pool capacity wait for a slot,
// not for the lock.
func WrapRW(spec lockreg.Spec, env lockreg.Env, opts ...lockreg.Option) (locks.NativeRWMutex, error) {
	if env.MaxThreads < 1 {
		env.MaxThreads = DefaultCapacity()
	}
	return WrapRWWithPool(spec, env, NewPool(env.MaxThreads, env.Topology), opts...)
}

// WrapRWWithPool builds spec's RW lock over an existing slot pool (the
// RW analogue of WrapWithPool; same capacity contract). Specs with a
// native RW build ignore the pool — they need no thread slots.
func WrapRWWithPool(spec lockreg.Spec, env lockreg.Env, pool *Pool, opts ...lockreg.Option) (locks.NativeRWMutex, error) {
	if spec.Native != nil {
		n := spec.Native(env, opts...)
		if rwn, ok := n.(locks.NativeRWMutex); ok {
			return rwn, nil
		}
		return nil, notRWError(spec)
	}
	if env.MaxThreads < pool.Capacity() {
		env.MaxThreads = pool.Capacity()
	}
	rw, ok := spec.Build(env, opts...).(locks.RWMutex)
	if !ok {
		return nil, notRWError(spec)
	}
	return &RWMutex{Mutex: Mutex{inner: rw, pool: pool}, rw: rw, readers: pool.free.emptyCopy()}, nil
}

var _ locks.NativeRWMutex = (*RWMutex)(nil)
