// Package core implements CNA, the compact NUMA-aware lock that is the
// paper's contribution (Dice & Kogan, "Compact NUMA-Aware Locks",
// EuroSys 2019).
//
// CNA is a variant of the MCS queue lock. Like MCS, the entire shared
// state of the lock is one word — a pointer to the tail of the waiters'
// queue — and acquisition performs a single atomic exchange. Unlike MCS,
// the unlock path partitions waiters into two queues: the main queue,
// holding threads on the current holder's socket (plus new arrivals), and
// a secondary queue holding threads on other sockets. The releasing
// holder scans the main queue for a same-socket successor, detaches any
// skipped remote waiters onto the secondary queue, and passes ownership —
// so the lock (and the data the critical section touches) stays on one
// socket for long stretches.
//
// The secondary queue costs no extra lock state: the pointer to its head
// rides in the successor's spin field (the word a waiter spins on), and
// the pointer to its tail lives in the secondary head's secTail field.
// Long-term fairness comes from flushing the secondary queue back into
// the main queue with small probability on each handover
// (keep_lock_local, THRESHOLD = 0xffff in the paper).
//
// # Differences from the paper's C pseudo-code
//
// The C code stores 0, 1, or a node pointer in the spin field, relying on
// valid pointers never equalling 1. Go's garbage collector must always
// see real pointers, so spin is an atomic.Pointer[Node] and the value 1
// is represented by a package-level sentinel node. The mapping is:
//
//	C pseudo-code          this package
//	me->spin == 0          spin.Load() == nil        (still waiting)
//	me->spin == 1          spin.Load() == granted    (lock held, secondary queue empty)
//	me->spin  > 1          any other non-nil value   (lock held, points at secondary head)
//
// # Hot-path engineering
//
// The headline claim — CNA matches MCS on the uncontended fast path —
// holds only if the Go port does not pay costs the C pseudo-code never
// does, so the hot paths are tuned accordingly: queue nodes are located
// through a per-Thread cached base pointer (one add) rather than a
// two-level slice index per acquisition; the spin word is cleared on the
// contended path only (an empty-queue entrant overwrites it with granted
// anyway, and a predecessor cannot reach the node before it is linked);
// the unlock path loads the holder's spin word once (only the holder
// writes it, so one load serves every decision); and statistics
// collection is opt-in (EnableStats / the registry's WithStats), so a
// default-built lock's handover path performs no counter writes at all.
package core

import (
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/locks"
	"repro/internal/spinwait"
	"repro/internal/waiter"
)

// granted is the sentinel standing for the pseudo-code's spin value 1:
// the lock has been handed to this node's owner and the secondary queue
// is empty. Its fields are never accessed.
var granted = &Node{}

// Node is a CNA queue node. As in MCS, nodes are owned by threads, reused
// across acquisitions, and carried (implicitly, via the Thread's nesting
// slot) from Lock to Unlock. A node is exactly one cache line (asserted
// in size_test.go): cf. the paper's cna_node_t {spin, socket, secTail,
// next}.
type Node struct {
	// spin is the word the owner waits on; see the package comment for
	// its three-valued meaning.
	spin atomic.Pointer[Node]
	// socket is the owner's NUMA node, or -1 when the owner entered an
	// empty queue and never recorded it (the uncontended fast path skips
	// the lookup, which is why CNA matches MCS single-thread performance).
	socket int32
	// tstate is the timed-acquisition state machine, the same
	// Scott-&-Scherer-style protocol MCS uses (see the tsClean constant
	// block in internal/locks/mcs.go). It rides in the alignment hole
	// after socket, so the node stays one cache line; untimed acquires
	// never write it.
	tstate atomic.Uint32
	// secTail, meaningful only in a secondary-queue head, points at the
	// secondary queue's last node so appending and flushing are O(1).
	secTail atomic.Pointer[Node]
	// next is the MCS-style link to the queue successor.
	next atomic.Pointer[Node]
	// wait is the owner's park state and ready its prebuilt grant
	// predicate (spin != nil), both used only on the contended path —
	// they ride inside what used to be pure padding, keeping the node at
	// exactly one 64-byte cache line.
	wait  waiter.State
	ready func() bool
}

// nodeBytes is the per-node stride used by the cached-base index path.
const nodeBytes = unsafe.Sizeof(Node{})

// The timed-acquisition states, mirroring internal/locks/mcs.go (the
// protocol is documented there in full): a timed waiter arms its node
// before the tail swap publishes it, and on expiry races the granting
// releaser with one CAS — tsArmed → tsAbandoned (waiter leaves, node
// stays queued as a tombstone) versus tsArmed → tsGranted (releaser
// commits; the waiter accepts the at-the-buzzer grant). Releasers skip
// tombstones and retire them (→ tsClean) once their links are read.
//
// CNA adds one queue the MCS protocol does not have — the secondary
// queue — and the invariant that makes abandonment bounded here is that
// timed waiters never enter it: findSuccessor treats any timed node as
// an acceptable successor, terminating its scan, so the runs it moves to
// the secondary queue are all-untimed. (A queued node's timed-ness is
// stable: arming precedes enqueue, so a tsClean node in the queue can
// never become armed.) An abandoned node therefore always sits in the
// main queue, where the very next release walk retires it — the same
// bound MCS has — instead of lingering for a potentially unbounded
// secondary tenure behind a 1/65536 flush draw.
const (
	tsClean     uint32 = iota // not a timed waiter / reusable
	tsArmed                   // timed waiter enqueued, may still abandon
	tsAbandoned               // waiter left; releasers skip and retire
	tsGranted                 // releaser committed the grant to this node
)

// awaitReusable spins until a releaser's skip walk has retired a
// previously abandoned node (see the tstate comment for the bound).
func (n *Node) awaitReusable() {
	var s spinwait.Spinner
	for n.tstate.Load() != tsClean {
		s.Pause()
	}
}

// retireIfAbandoned returns an abandoned tombstone to its owner. For
// the holder's own (tsClean) node this is one load of a line the
// release just read the next link from.
func (n *Node) retireIfAbandoned() {
	if n.tstate.Load() == tsAbandoned {
		n.tstate.Store(tsClean)
	}
}

// clearNext resets the queue link with a plain (non-atomic) store. Legal
// only before the tail Swap publishes the node: until then no other
// thread holds a reference to it — the previous acquisition's unlock
// returned only after (atomically) observing any in-flight successor
// link, so no writer from an earlier round can still be pending. Skipping
// the atomic store matters because Go compiles atomic pointer stores to
// XCHG, a full memory barrier that profiles as ~20% of the uncontended
// acquire on its own.
func (n *Node) clearNext() {
	*(*unsafe.Pointer)(unsafe.Pointer(&n.next)) = nil
}

// Options tune the CNA policy knobs described in Sections 5 and 6.
type Options struct {
	// KeepLocalMask is the paper's THRESHOLD: on each contended handover
	// the holder draws a pseudo-random number and keeps the lock on its
	// socket iff draw & KeepLocalMask != 0. The default 0xffff flushes
	// the secondary queue with probability 1/65536. A mask of 0 disables
	// NUMA-awareness entirely, reducing CNA to exact MCS FIFO order.
	KeepLocalMask uint64
	// ShuffleReduction enables the Section 6 optimisation: when the
	// secondary queue is empty, hand the lock to the immediate successor
	// (skipping the successor scan) with probability
	// ShuffleMask/(ShuffleMask+1).
	ShuffleReduction bool
	// ShuffleMask is the paper's THRESHOLD2 (default 0xff).
	ShuffleMask uint64
	// FairnessCountdown enables the Section 6 optimisation of the
	// keep_lock_local policy: "instead of drawing a pseudo-random number
	// in every invocation of keep_lock_local, a thread can store the
	// drawn number in a thread-local variable and decrement it with
	// every lock handover", redrawing when it reaches zero. The expected
	// flush rate is unchanged; the per-handover PRNG call disappears.
	FairnessCountdown bool
}

// DefaultOptions returns the paper's configuration: THRESHOLD = 0xffff,
// shuffle reduction off.
func DefaultOptions() Options {
	return Options{KeepLocalMask: 0xffff, ShuffleReduction: false, ShuffleMask: 0xff}
}

// OptimizedOptions returns the "CNA (opt)" configuration evaluated in
// Figures 9 and 11: shuffle reduction on with THRESHOLD2 = 0xff.
func OptimizedOptions() Options {
	o := DefaultOptions()
	o.ShuffleReduction = true
	return o
}

// Stats are CNA-specific counters, maintained by the lock holder (so they
// need no atomics) and meaningful only while the lock is idle. Collection
// is opt-in via EnableStats; a default-built lock never writes them.
type Stats struct {
	// Handover counts where ownership travelled.
	Handover locks.HandoverCounter
	// SecondaryMoves is the total number of nodes moved from the main to
	// the secondary queue.
	SecondaryMoves uint64
	// QueueAlterations counts unlock operations that restructured the
	// main queue (the statistic behind the paper's shuffle-reduction
	// discussion: "we collected statistics on how many times the main
	// waiting queue is altered").
	QueueAlterations uint64
	// Flushes counts secondary→main queue transfers (both the
	// empty-main-queue case and the fairness case).
	Flushes uint64
}

// Arena is the per-thread node storage backing one or more CNA locks.
// Because a thread occupies at most MaxNesting queue nodes at a time —
// one per nesting level, regardless of how many distinct locks exist —
// a single Arena serves any number of Lock instances, exactly like the
// Linux kernel's four statically preallocated per-CPU qspinlock nodes
// serve every spinlock in the system. This is what makes CNA deployable
// where "it is prohibitively expensive to store a separate lock per
// node" (Bronson et al., quoted in the paper): a million CNA locks cost
// a million words plus one shared Arena.
type Arena struct {
	nodes [][locks.MaxNesting]Node
}

// NewArena returns an Arena for threads with IDs below maxThreads.
func NewArena(maxThreads int) *Arena {
	a := &Arena{nodes: make([][locks.MaxNesting]Node, maxThreads)}
	for i := range a.nodes {
		for j := range a.nodes[i] {
			n := &a.nodes[i][j]
			n.ready = func() bool { return n.spin.Load() != nil }
		}
	}
	return a
}

// MaxThreads reports the thread-ID bound the arena was built for.
func (a *Arena) MaxThreads() int { return len(a.nodes) }

// base returns the address of t's first node in the arena, consulting
// the thread's single-entry cache keyed on the arena's identity. Every
// lock sharing the arena shares cache hits, so the steady-state cost is
// one pointer compare — the node for a nesting slot is then one add away.
func (a *Arena) base(t *locks.Thread) unsafe.Pointer {
	key := unsafe.Pointer(a)
	if p := t.NodeBase(key); p != nil {
		return p
	}
	p := unsafe.Pointer(&a.nodes[t.ID])
	t.SetNodeBase(key, p)
	return p
}

// Lock is a CNA lock. Its shared state — the only memory other threads'
// hot paths touch — is the single tail word, padded onto its own cache
// line so that arriving threads' tail swaps do not invalidate the
// holder-read configuration (and optional statistics) below it.
type Lock struct {
	tail atomic.Pointer[Node]
	_    [7]uint64

	opts  Options
	arena *Arena
	wait  waiter.Policy // waiting policy; read-only once the lock is shared
	stats *Stats        // nil until EnableStats: default builds write no counters

	// countdown holds per-thread remaining local handovers when
	// FairnessCountdown is on. Indexed by thread ID and touched only by
	// the lock holder, so it needs no atomics; padded to avoid false
	// sharing between consecutively numbered threads.
	countdown []paddedCounter

	// forceKeepLocal overrides keepLockLocal for deterministic tests:
	// 0 = use the PRNG policy, +1 = always keep local, -1 = never.
	forceKeepLocal int
}

type paddedCounter struct {
	n uint64
	_ [7]uint64
}

// New returns a CNA lock with the paper's default options and a private
// arena, usable by threads with IDs below maxThreads.
func New(maxThreads int) *Lock { return NewWithOptions(maxThreads, DefaultOptions()) }

// NewWithOptions returns a CNA lock with a private arena and explicit
// policy knobs.
func NewWithOptions(maxThreads int, opts Options) *Lock {
	return NewWithArena(NewArena(maxThreads), opts)
}

// NewWithArena returns a CNA lock that draws queue nodes from a shared
// arena. Use this form when instantiating many locks (per-node locks in
// a data structure, per-inode locks, ...).
func NewWithArena(arena *Arena, opts Options) *Lock {
	l := &Lock{
		opts:  opts,
		arena: arena,
		wait:  waiter.Default,
	}
	if opts.FairnessCountdown {
		l.countdown = make([]paddedCounter, arena.MaxThreads())
	}
	return l
}

// Name implements locks.Mutex. "CNA-opt" is the canonical spelling of
// the paper's "CNA (opt)" variant (registry names, CLI flags and Name()
// must agree; see internal/lockreg).
func (l *Lock) Name() string {
	if l.opts.ShuffleReduction {
		return "CNA-opt" + l.wait.Suffix()
	}
	return "CNA" + l.wait.Suffix()
}

// SetWait implements waiter.Setter: it selects the waiting policy used
// by the contended spin-word wait and the successor wakes. Call before
// the lock is shared.
func (l *Lock) SetWait(p waiter.Policy) { l.wait = p }

// EnableStats implements locks.StatsEnabler: it switches on holder-side
// statistics collection. Call before the lock is shared.
func (l *Lock) EnableStats() {
	if l.stats == nil {
		l.stats = &Stats{Handover: locks.NewHandoverCounter()}
	}
}

// Stats exposes the lock's counters. Read only while the lock is idle.
// Without EnableStats the returned snapshot is all zeros.
func (l *Lock) Stats() *Stats {
	if l.stats == nil {
		return &Stats{Handover: locks.NewHandoverCounter()}
	}
	return l.stats
}

// Lock acquires the lock for t. This is Figure 3 of the paper: a single
// atomic exchange on the tail, then local spinning on the node. The
// node itself is one add from the thread's cached arena base.
func (l *Lock) Lock(t *locks.Thread) {
	me := (*Node)(unsafe.Add(l.arena.base(t), uintptr(t.AcquireSlot())*nodeBytes))
	if me.tstate.Load() != tsClean {
		// Node still queued from an earlier timed-out acquire on this
		// slot; wait for a releaser's skip walk to retire it.
		me.awaitReusable()
	}
	l.lockNode(me, t)
}

// TryLock implements locks.Mutex: one CAS on the empty tail — the
// composed fast path Fissile Locks put in front of queue machinery. A
// success is exactly the uncontended Lock path (socket stays -1, which
// tells unlockNode the secondary queue is empty and the spin word was
// never written); a failure publishes nothing, touches no waiter state
// and returns the nesting slot.
func (l *Lock) TryLock(t *locks.Thread) bool {
	me := (*Node)(unsafe.Add(l.arena.base(t), uintptr(t.AcquireSlot())*nodeBytes))
	if me.tstate.Load() != tsClean {
		// Node still queued from a timed-out acquire: a non-blocking
		// attempt fails fast rather than waiting for its retirement.
		t.ReleaseSlot()
		return false
	}
	me.clearNext()
	me.socket = -1
	if l.tail.CompareAndSwap(nil, me) {
		if st := l.stats; st != nil {
			st.Handover.Record(t.Socket)
		}
		return true
	}
	t.ReleaseSlot()
	return false
}

// Unlock releases the lock for t (Figure 4 of the paper).
func (l *Lock) Unlock(t *locks.Thread) {
	me := (*Node)(unsafe.Add(l.arena.base(t), uintptr(t.ReleaseSlot())*nodeBytes))
	l.unlockNode(me, t)
}

// LockTimeout implements locks.Mutex via the tstate abandonment
// protocol (see the tsClean constant block): arm the node, enqueue, run
// the timed wait, and on expiry race the releaser for the node's fate.
// A waiter that accepts an at-the-buzzer grant inherits whatever spin
// value the releaser committed — possibly the secondary-queue head — so
// its eventual unlock carries the secondary queue onward as usual.
func (l *Lock) LockTimeout(t *locks.Thread, d time.Duration) bool {
	me := (*Node)(unsafe.Add(l.arena.base(t), uintptr(t.AcquireSlot())*nodeBytes))
	if me.tstate.Load() != tsClean {
		t.ReleaseSlot()
		return false // node still queued; a timed attempt fails fast
	}
	deadline := time.Now().Add(d)
	me.clearNext()
	// Unlike the untimed fast path, everything is prepared before the
	// tail swap publishes the node: a releaser must never observe this
	// (timed) node unarmed, and an abandoning waiter cannot come back to
	// finish deferred setup.
	me.spin.Store(nil)
	me.socket = int32(t.Socket)
	l.wait.Prepare(&me.wait)
	me.tstate.Store(tsArmed)
	tail := l.tail.Swap(me)
	if tail == nil {
		me.tstate.Store(tsClean)
		// The socket is recorded, so unlockNode will read the spin word
		// rather than derive it: store the empty-secondary sentinel.
		me.spin.Store(granted)
		if st := l.stats; st != nil {
			st.Handover.Record(t.Socket)
		}
		return true
	}
	tail.next.Store(me)
	if l.wait.WaitUntil(&me.wait, me.ready, deadline) {
		me.tstate.Store(tsClean)
		if st := l.stats; st != nil {
			st.Handover.Record(t.Socket)
		}
		return true
	}
	// Expired: abandon (the node stays queued as a tombstone until a
	// release walk retires it) unless the releaser already committed.
	if me.tstate.CompareAndSwap(tsArmed, tsAbandoned) {
		t.ReleaseSlot()
		return false
	}
	// tsGranted: the releaser is (or just finished) storing the grant.
	var s spinwait.Spinner
	for !me.ready() {
		s.Pause()
	}
	me.tstate.Store(tsClean)
	if st := l.stats; st != nil {
		st.Handover.Record(t.Socket)
	}
	return true
}

// grantNode commits the lock to target with spin value v unless target
// abandoned its timed wait (false — the caller must skip the node). For
// the common untimed node this is exactly the old handover sequence
// plus one load of the line the spin store below writes anyway.
func (l *Lock) grantNode(target, v *Node) bool {
	if target.tstate.Load() != tsClean {
		if !target.tstate.CompareAndSwap(tsArmed, tsGranted) {
			return false // tsAbandoned
		}
	}
	target.spin.Store(v)
	l.wait.Wake(&target.wait)
	return true
}

// lockNode runs the acquisition protocol on an explicit node.
func (l *Lock) lockNode(me *Node, t *locks.Thread) {
	me.clearNext()
	me.socket = -1

	// Add myself to the main queue — the only atomic in the lock path.
	tail := l.tail.Swap(me)
	if tail == nil {
		// No one there: we hold the lock with no secondary queue. The
		// pseudo-code records that by setting me->spin = 1; here the
		// still-set socket == -1 carries the same fact to unlockNode, so
		// the fast path writes nothing beyond the link reset and the tail
		// swap — this is what keeps CNA at MCS speed single-threaded.
		if st := l.stats; st != nil {
			st.Handover.Record(t.Socket)
		}
		return
	}
	// Someone there; clear the spin word and the park residue (deferred
	// off the fast path — the predecessor cannot observe this node until
	// it is linked in), record our socket, and link. The socket lookup
	// is deliberately on the contended path only.
	me.spin.Store(nil)
	me.socket = int32(t.Socket)
	l.wait.Prepare(&me.wait)
	tail.next.Store(me)
	// Wait for the lock to become available.
	l.wait.Wait(&me.wait, me.ready)
	if st := l.stats; st != nil {
		st.Handover.Record(t.Socket)
	}
}

// unlockNode runs the release protocol on an explicit node. The holder's
// spin word is loaded at most once: an empty-queue entrant (socket still
// -1) never had its spin word written, so its value is derived instead
// of read, and nobody but the holder writes the holder's spin word, so
// the local copy (threaded through findSuccessor, which may replace it
// when it starts a secondary queue) stays authoritative for the whole
// release.
//
// The body is a loop so a grant refused by an abandoned timed waiter
// continues the release from that node (retiring the tombstone once its
// links are read), exactly like the MCS skip walk — with cur standing
// in for the holder's node and the holder-era sp and socket carried
// along unchanged. For an all-untimed queue every grant succeeds on the
// first attempt and the loop body runs once, matching the pre-timeout
// release instruction for instruction.
func (l *Lock) unlockNode(me *Node, t *locks.Thread) {
	cur := me
	next := cur.next.Load()
	sp := granted
	if me.socket != -1 {
		sp = me.spin.Load()
	}
	mySocket := me.socket
	if mySocket == -1 {
		mySocket = int32(t.Socket)
	}
	for {
		if next == nil {
			// No linked successor in the main queue.
			if sp == granted {
				// Secondary queue empty too: try to swing the tail to
				// nil, leaving the lock completely free.
				if l.tail.CompareAndSwap(cur, nil) {
					cur.retireIfAbandoned()
					return
				}
			} else {
				// Main queue looks empty but the secondary queue is not:
				// try to make the secondary queue the new main queue and
				// hand the lock to its head. (Secondary nodes are never
				// timed — see the tstate comment — so the grant below
				// cannot fail in practice; the fallback costs nothing.)
				if l.tail.CompareAndSwap(cur, sp.secTail.Load()) {
					cur.retireIfAbandoned()
					if st := l.stats; st != nil {
						st.Flushes++
					}
					head := sp
					sp = granted // the secondary queue is now the main queue
					if l.grantNode(head, granted) {
						return
					}
					cur = head
					next = cur.next.Load()
					continue
				}
			}
			// The CAS failed: a thread swapped the tail after our
			// next-load and is about to link in. Wait for the successor.
			var s spinwait.Spinner
			for next = cur.next.Load(); next == nil; next = cur.next.Load() {
				s.Pause()
			}
		}
		// cur's successor link has been read; a tombstone cur (skipped in
		// an earlier iteration) can be retired before the handover — its
		// owner may reuse it the moment tstate returns to tsClean, which
		// is why the store waits until the links are done with.
		cur.retireIfAbandoned()

		// Shuffle reduction (Section 6): under light contention, with an
		// empty secondary queue, skip the successor scan with high
		// probability and behave like MCS.
		if l.opts.ShuffleReduction && sp == granted &&
			t.RNG.Next()&l.opts.ShuffleMask != 0 {
			if l.grantNode(next, granted) {
				return
			}
			cur = next
			next = cur.next.Load()
			continue
		}

		// Determine the next lock holder and pass the lock via its spin
		// field.
		var succ *Node
		if l.keepLockLocal(t) {
			succ, sp = l.findSuccessor(next, sp, mySocket)
		}
		switch {
		case succ != nil:
			// Hand over on-socket (or to a timed waiter the scan stopped
			// at), forwarding the secondary-queue head (or the sentinel)
			// in the successor's spin field. The value stored is always
			// non-nil: an empty-queue entrant set it to granted.
			if l.grantNode(succ, sp) {
				return
			}
			cur = succ
		case sp != granted:
			// No same-socket successor (or fairness triggered): splice
			// the secondary queue in front of our main-queue successor
			// and hand the lock to the secondary head. Its secTail needs
			// no clearing — the new holder never reads it (cf. Figure
			// 1(g)).
			sp.secTail.Load().next.Store(next)
			if st := l.stats; st != nil {
				st.Flushes++
			}
			head := sp
			sp = granted // fully spliced: one main queue again
			if l.grantNode(head, granted) {
				return
			}
			cur = head
		default:
			// Secondary queue empty: plain MCS handover.
			if l.grantNode(next, granted) {
				return
			}
			cur = next
		}
		next = cur.next.Load()
	}
}

// keepLockLocal implements the paper's long-term fairness policy: keep
// the lock on this socket unless a low-probability draw says otherwise.
func (l *Lock) keepLockLocal(t *locks.Thread) bool {
	switch l.forceKeepLocal {
	case 1:
		return true
	case -1:
		return false
	}
	if l.opts.FairnessCountdown {
		c := &l.countdown[t.ID]
		if c.n == 0 {
			// Redraw the budget; returning false here is the "once the
			// number reaches 0, ... have keep_lock_local return zero"
			// step of Section 6.
			c.n = t.RNG.Next() & l.opts.KeepLocalMask
			return false
		}
		c.n--
		return true
	}
	return t.RNG.Next()&l.opts.KeepLocalMask != 0
}

// findSuccessor is Figure 5 of the paper: scan the main queue (starting
// at next, the holder's already-loaded successor) for a waiter on my
// socket; move everything skipped onto the secondary queue. sp is the
// holder's current spin value; the possibly updated value (when the
// moved run starts a fresh secondary queue) is returned alongside the
// successor, so the caller never re-reads the spin word. Returns a nil
// successor (without touching the queues) if no such waiter is linked.
// The holder's own spin word is deliberately not rewritten: ownership of
// the secondary queue travels to the successor via the returned value.
//
// A timed waiter terminates the scan exactly like a same-socket one —
// it is returned as the successor rather than moved — which is the
// invariant keeping the secondary queue free of timed nodes (see the
// tstate comment). The NUMA policy concedes one off-socket handover for
// it; the release loop skips it in O(1) if it already abandoned.
func (l *Lock) findSuccessor(next, sp *Node, mySocket int32) (*Node, *Node) {
	// Check if my immediate successor is on the same socket (or timed).
	if next.socket == mySocket || next.tstate.Load() != tsClean {
		return next, sp
	}
	secHead := next
	secTail := next
	cur := next.next.Load()
	moved := uint64(1)

	// Traverse the main queue.
	for cur != nil {
		if cur.socket == mySocket || cur.tstate.Load() != tsClean {
			// Move [secHead, secTail] to the secondary queue: append to
			// its tail if it exists, otherwise the run becomes the queue
			// and its head is the new spin value.
			if sp != granted {
				sp.secTail.Load().next.Store(secHead)
			} else {
				sp = secHead
			}
			secTail.next.Store(nil)
			sp.secTail.Store(secTail)
			if st := l.stats; st != nil {
				st.QueueAlterations++
				st.SecondaryMoves += moved
			}
			return cur, sp
		}
		secTail = cur
		moved++
		cur = cur.next.Load()
	}
	return nil, sp
}

var _ locks.Mutex = (*Lock)(nil)
var _ locks.StatsEnabler = (*Lock)(nil)
