package locks

import (
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/spinwait"
	"repro/internal/waiter"
)

// mcsNode is a queue node of the MCS lock (shared with the Malthusian
// variant). Nodes are preallocated per thread and reused across
// acquisitions. The padding keeps each node on its own cache line so
// neighbouring threads' spin flags do not false-share; the waiter park
// state and the prebuilt ready closure ride inside the padding, so the
// node stays exactly one line.
type mcsNode struct {
	next   atomic.Pointer[mcsNode]
	locked atomic.Bool // set by the predecessor when ownership passes
	// tstate is the timed-acquisition state machine (tsClean/tsArmed/
	// tsAbandoned/tsGranted). Untimed acquires never
	// write it, so the plain Lock/Unlock hot paths are unchanged; it
	// shares the alignment hole after locked, keeping the node one line.
	tstate atomic.Uint32
	wait   waiter.State
	// ready is the node's grant predicate, built once at construction so
	// the contended wait path passes a preallocated closure to the
	// waiting policy instead of allocating one per acquisition.
	ready func() bool
	_     [2]uint64 // pad to exactly one 64-byte cache line
}

// initMCSNodes installs each node's prebuilt ready closure.
func initMCSNodes(nodes [][MaxNesting]mcsNode) {
	for i := range nodes {
		for j := range nodes[i] {
			n := &nodes[i][j]
			n.ready = n.locked.Load
		}
	}
}

// mcsNodeBytes is the per-node stride used by the cached-base index path.
const mcsNodeBytes = unsafe.Sizeof(mcsNode{})

// The timed-acquisition ("tstate") protocol, Scott-&-Scherer-style.
// A timed waiter arms its node before publishing it; from then on the
// node's fate is decided by a single CAS race between the granting
// releaser (tsArmed → tsGranted, then the normal grant store) and the
// timed-out waiter (tsArmed → tsAbandoned, then it just leaves). A
// releaser that finds tsAbandoned skips the node — reading its next
// link, or emptying the queue via the usual tail CAS when it is last —
// and retires it (tstate → tsClean) once it is off the queue, at which
// point the owning thread may reuse it. A waiter that loses the race
// (its abandon CAS finds tsGranted) has the lock: it accepts the
// at-the-buzzer grant and reports success. Untimed waiters keep
// tstate at tsClean and never touch it; the releaser pays one load of
// a line it is already writing the grant into.
const (
	tsClean     uint32 = iota // not a timed waiter / reusable
	tsArmed                   // timed waiter enqueued, may still abandon
	tsAbandoned               // waiter left; releasers skip and retire
	tsGranted                 // releaser committed the grant to this node
)

// awaitReusable spins until a previously abandoned node has been
// retired by a releaser's skip walk. Bounded: an abandoned node was
// enqueued behind a holder, and every release walks (and retires)
// abandoned nodes it skips, so the wait ends within the abandoned
// entry's turn at the queue head.
func (n *mcsNode) awaitReusable() {
	var s spinwait.Spinner
	for n.tstate.Load() != tsClean {
		s.Pause()
	}
}

// clearNext resets the queue link with a plain (non-atomic) store. Legal
// only before the tail Swap publishes the node: until then no other
// thread holds a reference to it — the previous unlock returned only
// after (atomically) observing any in-flight successor link. An atomic
// pointer store would be an XCHG full barrier, a large fraction of the
// uncontended acquire.
func (n *mcsNode) clearNext() {
	*(*unsafe.Pointer)(unsafe.Pointer(&n.next)) = nil
}

// MCS is the Mellor-Crummey/Scott queue lock: the shared state is a
// single tail pointer; waiters enqueue with one atomic swap and spin on a
// flag in their own node. It is the NUMA-oblivious baseline the CNA lock
// is derived from and measured against.
type MCS struct {
	tail atomic.Pointer[mcsNode]
	// pad the tail onto its own cache line: arriving threads Swap it
	// continuously and must not invalidate the holder-read fields below.
	_     [7]uint64
	nodes [][MaxNesting]mcsNode
	wait  waiter.Policy    // waiting policy; read-only once the lock is shared
	stats *HandoverCounter // nil until EnableStats: default builds write no counters
}

// NewMCS returns an MCS lock usable by threads with IDs below maxThreads.
// Handover statistics are off by default; call EnableStats (or build via
// the registry with WithStats) before use to collect them.
func NewMCS(maxThreads int) *MCS {
	l := &MCS{nodes: make([][MaxNesting]mcsNode, maxThreads), wait: waiter.Default}
	initMCSNodes(l.nodes)
	return l
}

// EnableStats implements StatsEnabler. Call before the lock is shared.
func (l *MCS) EnableStats() {
	if l.stats == nil {
		h := NewHandoverCounter()
		l.stats = &h
	}
}

// SetWait implements waiter.Setter: it selects the waiting policy.
// Call before the lock is shared.
func (l *MCS) SetWait(p waiter.Policy) { l.wait = p }

// node returns the thread's queue node for the given nesting slot,
// indexing from a per-thread cached base pointer (one add) instead of a
// two-level slice walk.
func (l *MCS) node(t *Thread, slot int) *mcsNode {
	key := unsafe.Pointer(&l.nodes[0])
	base := t.NodeBase(key)
	if base == nil {
		base = unsafe.Pointer(&l.nodes[t.ID])
		t.SetNodeBase(key, base)
	}
	return (*mcsNode)(unsafe.Add(base, uintptr(slot)*mcsNodeBytes))
}

// Lock enqueues t and waits until it reaches the head of the queue.
func (l *MCS) Lock(t *Thread) {
	n := l.node(t, t.AcquireSlot())
	if n.tstate.Load() != tsClean {
		// The node is still queued from an earlier timed-out acquire on
		// this slot; wait for a releaser to retire it.
		n.awaitReusable()
	}
	n.clearNext()

	prev := l.tail.Swap(n)
	if prev == nil {
		// Uncontended: n.locked stays stale — it is cleared below before
		// the node next becomes visible to a predecessor, and the unlock
		// path never reads it. The waiter state is equally untouched.
		if st := l.stats; st != nil {
			st.Record(t.Socket)
		}
		return
	}
	// Contended: the predecessor can only reach this node through the
	// next link published below, so clearing the spin flag and park
	// residue here (rather than before the tail swap) keeps the
	// uncontended path shorter without racing the handover.
	n.locked.Store(false)
	l.wait.Prepare(&n.wait)
	prev.next.Store(n)
	l.wait.Wait(&n.wait, n.ready)
	if st := l.stats; st != nil {
		st.Record(t.Socket)
	}
}

// TryLock implements Mutex: a single CAS on the tail word in place of
// the unconditional swap. It succeeds only when the queue is empty, so
// a failed TryLock never enqueues, never publishes the node and never
// touches the waiter state (waiter.TryPolicy).
func (l *MCS) TryLock(t *Thread) bool {
	n := l.node(t, t.AcquireSlot())
	if n.tstate.Load() != tsClean {
		// Node still queued from a timed-out acquire: a non-blocking
		// attempt fails fast rather than waiting for its retirement.
		t.ReleaseSlot()
		return false
	}
	n.clearNext()
	if l.tail.CompareAndSwap(nil, n) {
		if st := l.stats; st != nil {
			st.Record(t.Socket)
		}
		return true
	}
	t.ReleaseSlot()
	return false
}

// LockTimeout implements Mutex via the tstate abandonment
// protocol (see the tsClean constant block): arm the node, enqueue, run the timed
// wait, and on expiry race the releaser for the node's fate.
func (l *MCS) LockTimeout(t *Thread, d time.Duration) bool {
	slot := t.AcquireSlot()
	n := l.node(t, slot)
	if n.tstate.Load() != tsClean {
		// Node still queued from an earlier timed-out acquire. A timed
		// attempt does not block on retirement: fail fast.
		t.ReleaseSlot()
		return false
	}
	deadline := time.Now().Add(d)
	n.clearNext()
	// Arm before the tail swap publishes the node: a releaser must
	// never observe this (timed) node unarmed.
	n.locked.Store(false)
	l.wait.Prepare(&n.wait)
	n.tstate.Store(tsArmed)

	prev := l.tail.Swap(n)
	if prev == nil {
		n.tstate.Store(tsClean) // uncontended: the lock is ours, disarm
		if st := l.stats; st != nil {
			st.Record(t.Socket)
		}
		return true
	}
	prev.next.Store(n)
	if l.wait.WaitUntil(&n.wait, n.ready, deadline) {
		n.tstate.Store(tsClean)
		if st := l.stats; st != nil {
			st.Record(t.Socket)
		}
		return true
	}
	// Expired. Either we abandon first (the node stays queued, poisoned,
	// until a releaser's skip walk retires it) or the releaser already
	// committed the grant — then the lock is ours at the buzzer.
	if n.tstate.CompareAndSwap(tsArmed, tsAbandoned) {
		t.ReleaseSlot()
		return false
	}
	// tsGranted: the releaser is (or just finished) storing the grant.
	var s spinwait.Spinner
	for !n.ready() {
		s.Pause()
	}
	n.tstate.Store(tsClean)
	if st := l.stats; st != nil {
		st.Record(t.Socket)
	}
	return true
}

// Unlock passes the lock to t's successor, or empties the queue.
func (l *MCS) Unlock(t *Thread) {
	n := l.node(t, t.ReleaseSlot())
	next := n.next.Load()
	if next == nil {
		// No linked successor. If the tail is still us, the queue is
		// empty; otherwise a successor swapped the tail and is about to
		// link in — wait for the link. The linking thread is between two
		// instructions (never parked), so this stays a plain spin.
		if l.tail.CompareAndSwap(n, nil) {
			return
		}
		var s spinwait.Spinner
		for next = n.next.Load(); next == nil; next = n.next.Load() {
			s.Pause()
		}
	}
	if !grantTo(l.wait, next) {
		l.skipFrom(next)
	}
}

// grantTo commits the lock to next unless next abandoned its timed
// wait (false — the caller must skip the node). For the common untimed
// node it is exactly the old release sequence plus one load of the
// line the grant store below writes anyway. Shared by every lock built
// on mcsNode.
func grantTo(p waiter.Policy, next *mcsNode) bool {
	if next.tstate.Load() != tsClean {
		// A timed waiter: win the grant race or skip the node.
		if !next.tstate.CompareAndSwap(tsArmed, tsGranted) {
			return false // tsAbandoned
		}
	}
	next.locked.Store(true)
	p.Wake(&next.wait)
	return true
}

// skipFrom continues a release whose queue head abandoned its timed
// wait: walk successive abandoned nodes — retiring each once its
// successor link has been read — until a live waiter takes the grant
// or the queue empties. Each retired node's owner may reuse it the
// moment its tstate returns to tsClean, which is why the store comes
// strictly after the node's links are done with.
func (l *MCS) skipFrom(a *mcsNode) {
	for {
		next := a.next.Load()
		if next == nil {
			if l.tail.CompareAndSwap(a, nil) {
				a.tstate.Store(tsClean)
				return
			}
			var s spinwait.Spinner
			for next = a.next.Load(); next == nil; next = a.next.Load() {
				s.Pause()
			}
		}
		a.tstate.Store(tsClean)
		if grantTo(l.wait, next) {
			return
		}
		a = next
	}
}

// Name implements Mutex.
func (l *MCS) Name() string { return "MCS" + l.wait.Suffix() }

// Handovers exposes the lock's local/remote handover counts. Read it only
// while the lock is idle; without EnableStats it reports zeros.
func (l *MCS) Handovers() *HandoverCounter {
	if l.stats == nil {
		h := NewHandoverCounter()
		return &h
	}
	return l.stats
}
