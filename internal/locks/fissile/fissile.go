// Package fissile composes a TAS fast path with any queue lock, after
// "Fissile Locks" (Dice & Kogan 2020; see PAPERS.md). The common case
// most real locks live in — uncontended — pays one CAS on a single
// word: no queue node, no Thread state, no freelist traffic. Only when
// that CAS fails does an acquisition fall back to the wrapped queue
// lock (CNA, MCS, ...), inheriting its NUMA policy, its waiter
// parking, and its Scott-&-Scherer timeout protocol unchanged.
//
// # Protocol
//
// The outer word holds two bits. Acquire: CAS(0 → locked). Release:
// subtract the locked bit. The slow path takes the inner queue lock
// first — so queue order, socket grouping and parking all still apply
// among contended waiters — and then the queue's head (the "alpha"
// waiter) competes for the outer word on everyone's behalf:
//
//  1. Patience phase: bounded TTAS spinning on the outer word. Fast-path
//     acquirers may barge ahead during this window — that barging is
//     exactly what makes the composite fast, and the bound is what keeps
//     it fair.
//  2. Hand-back: patience exhausted, the alpha sets the barred bit.
//     A barred word is non-zero, so every fast-path CAS now fails and
//     new arrivals are diverted into the queue behind the alpha.
//  3. The alpha's CAS(barred → locked) takes the lock and reopens the
//     fast path in one atomic step.
//
// Having won the outer word, the alpha releases the inner lock (handing
// alpha-ship to its queue successor) and enters the critical section
// holding only the outer word. Unlock is therefore identical for both
// paths — one RMW on the word — and never inspects the Thread, which is
// what lets the goroutine-native adapter (internal/gonative) skip the
// slot claim entirely on the fast path.
//
// A timed slow path that expires while barred withdraws its bar (one
// final CAS attempt, then clearing the bit) before abandoning the inner
// queue, so an expired waiter can never leave the fast path disabled.
// Only one thread can be the alpha at a time — it holds the inner lock —
// so the barred bit has a single writer and cannot leak.
//
// # Trade-off
//
// Fissile trades short-term fairness for throughput: a fast-path
// acquirer can overtake queued waiters until the alpha's patience runs
// out, so hand-over-hand FIFO ordering holds only among queue waiters,
// not across the two paths. Starvation stays bounded by the patience
// knob (WithPatience). Handover-locality statistics of the inner lock
// remain meaningful only for the contended population — the fast path
// performs no handovers at all.
package fissile

import (
	"sync/atomic"
	"time"

	"repro/internal/locknames"
	"repro/internal/locks"
	"repro/internal/spinwait"
	"repro/internal/waiter"
)

// Outer-word bits. Zero means free.
const (
	lockedBit = 1 << 0 // set while some thread holds the lock
	barredBit = 1 << 1 // set by the alpha waiter to close the fast path
)

// DefaultPatience is how many TTAS probe rounds the alpha waiter
// tolerates barging before it bars the fast path. Large enough that a
// short fast-path critical section hands over within the window (so the
// common case never pays the bar/reopen round trip), small enough that
// a fast-path storm cannot starve the queue for more than microseconds.
const DefaultPatience = 256

// Stats are the opt-in fast-path counters (see EnableStats; default
// builds perform no counter writes). All three are written only by a
// thread that holds the inner lock or the outer word, so reads are
// meaningful only while the lock is idle — the same contract as
// locks.HandoverCounter.
type Stats struct {
	// FastAcquires counts acquisitions that won the outer word with
	// the single uncontended CAS (Lock fast path and TryLock alike).
	FastAcquires uint64
	// SlowAcquires counts acquisitions that fell back to the queue and
	// won the outer word as the alpha waiter.
	SlowAcquires uint64
	// Handbacks counts the anti-starvation hand-backs: times an alpha
	// exhausted its patience and barred the fast path.
	Handbacks uint64
}

// Lock is the Fissile composite. Build one with New; the zero value is
// not usable.
type Lock struct {
	// word is the outer TAS word, alone on its cache line: it is the
	// only field the fast path touches, and the slow path's queue
	// traffic lives entirely inside the inner lock's own storage.
	word atomic.Uint32
	_    [15]uint32

	inner    locks.Mutex
	patience int
	statsOn  bool
	stats    Stats

	// queued gauges the slow path: the number of threads currently
	// inside LockSlow (queued behind the inner lock or competing for
	// the outer word as the alpha). The alpha reads it to adapt its
	// patience — see effectivePatience.
	queued atomic.Int32
}

// adaptiveShrink divides the patience budget while the inner queue is
// non-empty. With waiters stacked behind the alpha, every probe round
// the alpha tolerates barging is paid by the whole queue, so the budget
// shrinks to patience/adaptiveShrink (floor 1); once the queue drains
// the next alpha gets the full budget back.
const adaptiveShrink = 8

// effectivePatience is the alpha's adaptive probe budget: the full
// patience when the alpha waits alone, patience/adaptiveShrink (at
// least 1) while the gauge shows threads queued behind it.
func (l *Lock) effectivePatience() int {
	if l.queued.Load() > 1 {
		p := l.patience / adaptiveShrink
		if p < 1 {
			p = 1
		}
		return p
	}
	return l.patience
}

// Option tunes one composite knob; see WithPatience.
type Option func(*Lock)

// WithPatience sets how many TTAS probe rounds the alpha waiter spins
// on the outer word before barring the fast path. Values below 1 are
// raised to 1 (an alpha must probe at least once; an always-barred
// composite would just be the inner lock with an extra word).
func WithPatience(n int) Option {
	return func(l *Lock) {
		if n < 1 {
			n = 1
		}
		l.patience = n
	}
}

// New wraps inner — any queue lock — in the Fissile fast path. The
// composite's Name is the inner name plus locknames.FissileSuffix.
func New(inner locks.Mutex, opts ...Option) *Lock {
	l := &Lock{inner: inner, patience: DefaultPatience}
	for _, o := range opts {
		o(l)
	}
	return l
}

// Name implements locks.Mutex.
func (l *Lock) Name() string { return l.inner.Name() + locknames.FissileSuffix }

// Inner exposes the wrapped queue lock, e.g. to read its handover or
// secondary-queue statistics after a WithStats build.
func (l *Lock) Inner() locks.Mutex { return l.inner }

// TryFast attempts the one-CAS fast path: true iff the outer word was
// free (neither held nor barred) and is now held. It never touches the
// Thread, the inner lock, or any waiter state — the goroutine-native
// adapter calls it before claiming a thread slot.
func (l *Lock) TryFast() bool {
	if l.word.CompareAndSwap(0, lockedBit) {
		if l.statsOn {
			l.stats.FastAcquires++
		}
		return true
	}
	return false
}

// Lock implements locks.Mutex: the fast path, then the queue fallback.
// The Thread is used only while waiting in the queue — its nesting
// depth is back to its entry value by the time Lock returns.
func (l *Lock) Lock(t *locks.Thread) {
	if !l.TryFast() {
		l.LockSlow(t, time.Time{})
	}
}

// TryLock implements locks.Mutex: exactly the fast path. A barred word
// fails TryLock even though no one holds the lock — the alpha waiter
// has closed it, and a TryLock that barged past the bar could starve
// the queue indefinitely.
func (l *Lock) TryLock(t *locks.Thread) bool { return l.TryFast() }

// LockTimeout implements locks.Mutex: the fast path, then the queue
// fallback bounded by d. A non-positive d degrades to TryLock, per the
// interface contract.
func (l *Lock) LockTimeout(t *locks.Thread, d time.Duration) bool {
	return l.TryFast() || d > 0 && l.LockSlow(t, time.Now().Add(d))
}

// LockSlow is the contended fallback: join the inner queue, win the
// outer word as the alpha, leave the queue. The inner queue wait and
// the outer-word contest share one deadline; the zero deadline waits
// forever and never reads the clock. On expiry (false) the mutex is
// untouched, the fast path is reopened (any bar this waiter placed is
// withdrawn) and the Thread's nesting slot is not consumed. Exposed
// (with TryFast) so the goroutine-native adapter can claim its thread
// slot only for this path, spending part of the same deadline on the
// claim.
func (l *Lock) LockSlow(t *locks.Thread, deadline time.Time) bool {
	l.queued.Add(1)
	if !locks.LockUntil(l.inner, t, deadline) {
		l.queued.Add(-1)
		return false
	}
	ok := l.acquireOuter(deadline)
	l.queued.Add(-1)
	l.inner.Unlock(t)
	return ok
}

// acquireOuter wins the outer word as the alpha waiter (inner lock
// held) by deadline. The probe budget adapts to queue pressure: see
// effectivePatience. The clock is probed only once the spinner yields
// (spinwait.Spinner.Expired), and never for the zero deadline. On
// expiry while barred it makes one final CAS attempt and then
// withdraws the bar, so an abandoned wait never leaves the fast path
// closed.
func (l *Lock) acquireOuter(deadline time.Time) bool {
	patience := l.effectivePatience()
	var w spinwait.Spinner
	for i := 0; i < patience; i++ {
		if l.word.Load() == 0 && l.word.CompareAndSwap(0, lockedBit) {
			return l.wonSlow()
		}
		w.Pause()
		if w.Expired(deadline) {
			return false
		}
	}
	// Patience exhausted: bar the fast path. From here on the word can
	// only be locked|barred (holder still inside) or barred (free, ours
	// to take) — fast-path CASes fail on either, so the holder's exit
	// hands the lock to the queue.
	l.word.Or(barredBit)
	if l.statsOn {
		l.stats.Handbacks++
	}
	for {
		if l.word.CompareAndSwap(barredBit, lockedBit) {
			return l.wonSlow()
		}
		w.Pause()
		if w.Expired(deadline) {
			if l.word.CompareAndSwap(barredBit, lockedBit) {
				return l.wonSlow()
			}
			l.word.And(^uint32(barredBit))
			return false
		}
	}
}

// wonSlow counts a queue-path acquisition and reports success.
func (l *Lock) wonSlow() bool {
	if l.statsOn {
		l.stats.SlowAcquires++
	}
	return true
}

// Unlock implements locks.Mutex: one RMW on the outer word, identical
// for both acquisition paths. The Thread is not inspected.
func (l *Lock) Unlock(t *locks.Thread) { l.UnlockFast() }

// UnlockFast releases the outer word (the goroutine-native adapter
// calls it directly — no thread slot is involved in a release). It
// panics if the lock is not held. Subtraction rather than a store: a
// waiting alpha's barred bit must survive the release so the queue,
// not the fast path, inherits the lock.
func (l *Lock) UnlockFast() {
	v := l.word.Add(^uint32(0))
	if (v+1)&lockedBit == 0 {
		panic("fissile: Unlock of an unlocked " + l.Name())
	}
}

// SetWait implements waiter.Setter by forwarding to the inner queue
// lock: the policy governs queue waiting; the alpha's outer-word spin
// has no waker to park against and always uses the adaptive spinner.
func (l *Lock) SetWait(p waiter.Policy) {
	if ws, ok := l.inner.(waiter.Setter); ok {
		ws.SetWait(p)
	}
}

// EnableStats implements locks.StatsEnabler: it switches on the
// composite's own fast-path counters and forwards to the inner lock.
// Like every stats enabler, it must be called before the lock is
// shared.
func (l *Lock) EnableStats() {
	l.statsOn = true
	if se, ok := l.inner.(locks.StatsEnabler); ok {
		se.EnableStats()
	}
}

// Stats returns a snapshot of the fast-path counters (all zero unless
// EnableStats was called). Meaningful only while the lock is idle.
func (l *Lock) Stats() Stats { return l.stats }

var (
	_ locks.Mutex        = (*Lock)(nil)
	_ locks.StatsEnabler = (*Lock)(nil)
	_ waiter.Setter      = (*Lock)(nil)
)
