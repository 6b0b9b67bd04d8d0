package locks

import (
	"context"
	"sync"
	"time"
)

// Std wraps sync.Mutex in the Mutex contract, ignoring the Thread
// argument — the Go runtime manages waiting and handover itself. It is
// registered as the "std" baseline so every sweep and conformance run
// compares the paper's locks against what plain Go code ships with. Its
// native form (NewStdNative) is sync.Mutex essentially unwrapped, so
// go-native adapter overhead can be read against a zero-adapter
// baseline.
type Std struct {
	mu sync.Mutex
}

// NewStd returns the sync.Mutex baseline lock.
func NewStd() *Std { return &Std{} }

// Lock implements Mutex.
func (l *Std) Lock(t *Thread) { l.mu.Lock() }

// TryLock implements Mutex.
func (l *Std) TryLock(t *Thread) bool { return l.mu.TryLock() }

// Unlock implements Mutex.
func (l *Std) Unlock(t *Thread) { l.mu.Unlock() }

// LockTimeout implements Mutex: sync.Mutex exposes no timed wait,
// so the stdlib wrappers poll TryLock until the deadline — the runtime
// manages fairness among the polls.
func (l *Std) LockTimeout(t *Thread, d time.Duration) bool {
	return PollTimeout(l.mu.TryLock, d)
}

// Name implements Mutex.
func (l *Std) Name() string { return "std" }

// StdRW is the sync.RWMutex baseline ("std-rw"). Its Mutex face is
// write-locked — every Lock takes the write side, so used as a plain
// mutex it is the honest baseline for code that guards mostly-written
// state with an RWMutex — and it implements the full RWMutex contract,
// making it the runtime baseline the cohort-RW constructions
// (internal/locks/rw) are measured against. The Thread argument is
// ignored throughout: the Go runtime manages waiting, handover and
// reader counting itself.
type StdRW struct {
	mu sync.RWMutex
}

// NewStdRW returns the sync.RWMutex baseline lock.
func NewStdRW() *StdRW { return &StdRW{} }

// Lock implements Mutex.
func (l *StdRW) Lock(t *Thread) { l.mu.Lock() }

// TryLock implements Mutex.
func (l *StdRW) TryLock(t *Thread) bool { return l.mu.TryLock() }

// Unlock implements Mutex.
func (l *StdRW) Unlock(t *Thread) { l.mu.Unlock() }

// LockTimeout implements Mutex (TryLock poll; see Std.LockTimeout).
func (l *StdRW) LockTimeout(t *Thread, d time.Duration) bool {
	return PollTimeout(l.mu.TryLock, d)
}

// RLock implements RWMutex.
func (l *StdRW) RLock(t *Thread) { l.mu.RLock() }

// RUnlock implements RWMutex.
func (l *StdRW) RUnlock(t *Thread) { l.mu.RUnlock() }

// RTryLock implements RWMutex.
func (l *StdRW) RTryLock(t *Thread) bool { return l.mu.TryRLock() }

// RLockTimeout implements RWMutex (TryRLock poll; sync.RWMutex exposes
// no timed wait, like its mutex sibling).
func (l *StdRW) RLockTimeout(t *Thread, d time.Duration) bool {
	return PollTimeout(l.mu.TryRLock, d)
}

// Name implements Mutex.
func (l *StdRW) Name() string { return "std-rw" }

// StdNative is sync.Mutex under the NativeMutex contract — what the
// go-native adapter path builds for the "std" spec (no thread slots to
// claim, so no adapter wraps it).
type StdNative struct {
	mu sync.Mutex
}

// NewStdNative returns the goroutine-native sync.Mutex baseline.
func NewStdNative() *StdNative { return &StdNative{} }

// Lock implements NativeMutex.
func (l *StdNative) Lock() { l.mu.Lock() }

// TryLock implements NativeMutex.
func (l *StdNative) TryLock() bool { return l.mu.TryLock() }

// Unlock implements NativeMutex.
func (l *StdNative) Unlock() { l.mu.Unlock() }

// LockTimeout implements NativeMutex (TryLock poll; see
// Std.LockTimeout).
func (l *StdNative) LockTimeout(d time.Duration) bool {
	return PollTimeout(l.mu.TryLock, d)
}

// LockContext implements NativeMutex.
func (l *StdNative) LockContext(ctx context.Context) error {
	return ContextLock(ctx, l)
}

// Name implements NativeMutex.
func (l *StdNative) Name() string { return "std" }

// StdRWNative is sync.RWMutex under the NativeRWMutex contract: the
// write-locked NativeMutex face plus the real reader methods — the
// zero-adapter baseline for the goroutine-native RW path
// (repro.NewRWMutex, gonative.WrapRW).
type StdRWNative struct {
	mu sync.RWMutex
}

// NewStdRWNative returns the goroutine-native sync.RWMutex baseline.
func NewStdRWNative() *StdRWNative { return &StdRWNative{} }

// Lock implements NativeMutex.
func (l *StdRWNative) Lock() { l.mu.Lock() }

// TryLock implements NativeMutex.
func (l *StdRWNative) TryLock() bool { return l.mu.TryLock() }

// Unlock implements NativeMutex.
func (l *StdRWNative) Unlock() { l.mu.Unlock() }

// LockTimeout implements NativeMutex (TryLock poll; see
// Std.LockTimeout).
func (l *StdRWNative) LockTimeout(d time.Duration) bool {
	return PollTimeout(l.mu.TryLock, d)
}

// LockContext implements NativeMutex.
func (l *StdRWNative) LockContext(ctx context.Context) error {
	return ContextLock(ctx, l)
}

// RLock implements NativeRWMutex.
func (l *StdRWNative) RLock() { l.mu.RLock() }

// RUnlock implements NativeRWMutex.
func (l *StdRWNative) RUnlock() { l.mu.RUnlock() }

// TryRLock implements NativeRWMutex.
func (l *StdRWNative) TryRLock() bool { return l.mu.TryRLock() }

// RLockTimeout implements NativeRWMutex (TryRLock poll; see
// StdRW.RLockTimeout).
func (l *StdRWNative) RLockTimeout(d time.Duration) bool {
	return PollTimeout(l.mu.TryRLock, d)
}

// RLocker implements NativeRWMutex.
func (l *StdRWNative) RLocker() sync.Locker { return l.mu.RLocker() }

// Name implements NativeMutex.
func (l *StdRWNative) Name() string { return "std-rw" }

var (
	_ Mutex         = (*Std)(nil)
	_ RWMutex       = (*StdRW)(nil)
	_ NativeMutex   = (*StdNative)(nil)
	_ NativeRWMutex = (*StdRWNative)(nil)
)
