package locks

import (
	"sync"
	"time"
)

// RWMutex is the reader-writer extension of the thread-level lock
// contract: the full Mutex writer side (Lock/TryLock/LockTimeout/
// Unlock) plus a shared read side. Any number of readers may hold the
// lock together; readers and the writer exclude each other. The
// reader methods follow the same conventions as their writer
// counterparts: RLock consumes one of the thread's nesting slots for
// the duration of the hold, a failed RTryLock/RLockTimeout leaves the
// thread's nesting depth and the lock untouched, and RUnlock must be
// called by the thread that RLocked (the POSIX contract — the
// NUMA-aware construction in internal/locks/rw additionally relies on
// it to pair each reader's indicator decrement with the increment on
// the same per-socket stripe).
type RWMutex interface {
	Mutex
	// RLock acquires the lock for reading, blocking while a writer
	// holds it (and, in writer-preference mode, while one waits).
	RLock(t *Thread)
	// RUnlock releases one read hold; it must be called by the thread
	// that RLocked.
	RUnlock(t *Thread)
	// RTryLock attempts one non-blocking read acquisition; like
	// TryLock it never waits and never touches the waiter substrate.
	RTryLock(t *Thread) bool
	// RLockTimeout is RLock bounded by d: true means the read lock is
	// held; false means expiry with no trace left — the read
	// indicators are back to zero and the thread's nesting slot is not
	// consumed. A non-positive d degrades to RTryLock.
	RLockTimeout(t *Thread, d time.Duration) bool
}

// NativeRWMutex is the goroutine-native reader-writer contract: the
// sync.RWMutex method shape (plus TryLock/TryRLock, the timed
// acquires and Name) with no *Thread in sight. As with sync.RWMutex,
// RUnlock may be called by a different goroutine than the one that
// RLocked, provided the hold was handed over with proper
// synchronization. Registered RW locks gain this shape through the
// internal/gonative adapter; the stdlib baseline (std-rw) implements
// it directly over sync.RWMutex.
type NativeRWMutex interface {
	NativeMutex
	// RLock acquires the lock for reading.
	RLock()
	// RUnlock releases one read hold.
	RUnlock()
	// TryRLock attempts one non-blocking read acquisition (the
	// sync.RWMutex spelling, so adapted locks drop in for it).
	TryRLock() bool
	// RLockTimeout is RLock bounded by d; false means expiry with the
	// lock untouched.
	RLockTimeout(d time.Duration) bool
	// RLocker returns a sync.Locker whose Lock/Unlock are
	// RLock/RUnlock, mirroring sync.RWMutex.RLocker.
	RLocker() sync.Locker
}
