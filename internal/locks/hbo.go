package locks

import (
	"sync/atomic"
	"time"

	"repro/internal/spinwait"
)

// HBO is the hierarchical backoff lock of Radovic and Hagersten (HPCA
// 2003), the only prior one-word NUMA-aware lock the paper surveys. The
// word stores the holder's socket number (+1, with 0 meaning free); a
// waiter that sees the lock held by its own socket backs off for a short
// interval, a waiter on a remote socket for a long one, biasing the next
// acquisition toward the holder's socket.
//
// The paper's related-work section points out its weaknesses — global
// spinning, starvation of remote sockets, and backoff tuning — all of
// which reproduce readily here (see the package tests).
type HBO struct {
	state atomic.Uint32

	// Backoff windows, in pause units.
	localMin, localMax   uint
	remoteMin, remoteMax uint
}

// NewHBO returns an unlocked HBO lock with the given backoff windows for
// same-socket and remote-socket waiters.
func NewHBO(localMin, localMax, remoteMin, remoteMax uint) *HBO {
	return &HBO{
		localMin: localMin, localMax: localMax,
		remoteMin: remoteMin, remoteMax: remoteMax,
	}
}

// DefaultHBO returns an HBO lock with the backoff ratio used in the
// benchmarks (remote waiters back off 16x longer than local ones).
func DefaultHBO() *HBO { return NewHBO(2, 64, 32, 1024) }

// Lock acquires the lock with socket-sensitive backoff.
func (l *HBO) Lock(t *Thread) {
	me := uint32(t.Socket) + 1
	seed := uint64(t.ID+1) * 0x9e3779b97f4a7c15
	if t.RNG != nil {
		seed = t.RNG.Next()
	}
	local := spinwait.NewBackoff(l.localMin, l.localMax, seed)
	remote := spinwait.NewBackoff(l.remoteMin, l.remoteMax, seed^0xff)
	for {
		if l.state.CompareAndSwap(0, me) {
			return
		}
		if holder := l.state.Load(); holder == me {
			local.Wait()
		} else if holder != 0 {
			remote.Wait()
		}
		// holder == 0: retry the CAS immediately.
	}
}

// TryLock implements Mutex: one CAS, no backoff.
func (l *HBO) TryLock(t *Thread) bool {
	return l.state.CompareAndSwap(0, uint32(t.Socket)+1)
}

// LockTimeout implements Mutex: the socket-sensitive backoff loop
// with a deadline check per backoff interval.
func (l *HBO) LockTimeout(t *Thread, d time.Duration) bool {
	me := uint32(t.Socket) + 1
	if l.state.CompareAndSwap(0, me) {
		return true
	}
	if d <= 0 {
		return false
	}
	deadline := time.Now().Add(d)
	seed := uint64(t.ID+1) * 0x9e3779b97f4a7c15
	if t.RNG != nil {
		seed = t.RNG.Next()
	}
	local := spinwait.NewBackoff(l.localMin, l.localMax, seed)
	remote := spinwait.NewBackoff(l.remoteMin, l.remoteMax, seed^0xff)
	for {
		if !time.Now().Before(deadline) {
			return l.state.CompareAndSwap(0, me)
		}
		if holder := l.state.Load(); holder == me {
			local.Wait()
		} else if holder != 0 {
			remote.Wait()
		}
		if l.state.CompareAndSwap(0, me) {
			return true
		}
	}
}

// Unlock releases the lock.
func (l *HBO) Unlock(t *Thread) { l.state.Store(0) }

// Name implements Mutex.
func (l *HBO) Name() string { return "HBO" }

// HolderSocket reports the socket of the current holder, or -1 if free.
// Exposed for tests of the locality bias.
func (l *HBO) HolderSocket() int {
	v := l.state.Load()
	if v == 0 {
		return -1
	}
	return int(v) - 1
}
