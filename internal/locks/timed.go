package locks

import (
	"context"
	"time"

	"repro/internal/spinwait"
)

// TimedNativeMutex is NativeMutex, whose contract includes the timed
// acquires; the name stays for code written against it.
type TimedNativeMutex = NativeMutex

// NoWait is the deadline of a single non-blocking attempt. It lies in
// the past, so a deadline-driven acquire gives up after its first try,
// and LockUntil and RLockUntil recognise it by comparison, so a try
// reads no clock and reaches the lock's own TryLock.
var NoWait = time.Unix(0, 0)

// LockUntil is the deadline-driven acquire over the Mutex contract: the
// zero deadline is Lock (it never reads the clock), NoWait is TryLock,
// and any other deadline bounds the wait as LockTimeout does.
func LockUntil(m Mutex, t *Thread, deadline time.Time) bool {
	switch {
	case deadline.IsZero():
		m.Lock(t)
		return true
	case deadline == NoWait:
		return m.TryLock(t)
	}
	return m.LockTimeout(t, time.Until(deadline))
}

// RLockUntil is LockUntil for the read side of an RWMutex.
func RLockUntil(m RWMutex, t *Thread, deadline time.Time) bool {
	switch {
	case deadline.IsZero():
		m.RLock(t)
		return true
	case deadline == NoWait:
		return m.RTryLock(t)
	}
	return m.RLockTimeout(t, time.Until(deadline))
}

// ctxQuantum bounds how long a context-driven acquisition can outlive
// its context's cancellation: the wait is chunked into quantum-sized
// timed acquires with a cancellation check between chunks. Contexts
// that only carry a deadline never pay it — their remaining budget
// caps each chunk anyway.
const ctxQuantum = time.Millisecond

// ContextLock is the canonical LockContext implementation over any
// LockTimeout: nil means the mutex is held; otherwise the context's
// error is returned and the mutex is untouched. Cancellation (as
// opposed to deadline expiry) is observed between timed chunks, so it
// can lag by up to a millisecond.
func ContextLock(ctx context.Context, m interface{ LockTimeout(time.Duration) bool }) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for {
		d := ctxQuantum
		dl, hasDeadline := ctx.Deadline()
		if hasDeadline {
			if r := time.Until(dl); r < d {
				d = r
			}
		}
		if m.LockTimeout(d) {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if hasDeadline && !time.Now().Before(dl) {
			// Our clock beat the context's timer to the deadline.
			return context.DeadlineExceeded
		}
	}
}

// PollTimeout runs try until it succeeds or the deadline passes, with
// the adaptive spin-then-yield cadence between attempts. It is the
// timed acquire of the locks that cannot abandon a wait-queue position
// (ticket family, stdlib wrappers): the caller never joins the queue,
// so there is nothing to abandon on expiry.
func PollTimeout(try func() bool, d time.Duration) bool {
	if try() {
		return true
	}
	if d <= 0 {
		return false
	}
	deadline := time.Now().Add(d)
	var s spinwait.Spinner
	for {
		s.Pause()
		if try() {
			return true
		}
		if s.Expired(deadline) {
			return try() // one last attempt at the buzzer
		}
	}
}
