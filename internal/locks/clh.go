package locks

import (
	"sync/atomic"
	"time"

	"repro/internal/spinwait"
	"repro/internal/waiter"
)

// clhNode is a CLH queue node. Unlike MCS, a releasing thread's node is
// adopted by its successor, so node ownership rotates through the queue.
// The successor waits ON this node, so the park state and the prebuilt
// ready predicate live here too: the releaser wakes its own node, which
// is exactly where its (unknown) successor parked.
type clhNode struct {
	// locked is true while the owner holds or waits for the lock.
	locked atomic.Bool
	// aband is set by a timed owner that gave up waiting: the node
	// stays in the queue as a tombstone and the successor bypasses it
	// (see CLH.LockTimeout). Grant in CLH is a state, not a message, so
	// the bypass forwards a release that lands after the abandonment —
	// no grant is ever lost and no decision CAS is needed.
	aband atomic.Bool
	// idx is the node's fixed position in the lock's node table — the
	// identity the versioned tail word carries (see CLH.tail).
	idx   uint32
	wait  waiter.State
	ready func() bool // true when locked cleared or owner abandoned
	// predp is the abandoner's predecessor, published (before aband)
	// for the successor to re-target its wait onto.
	predp atomic.Pointer[clhNode]
	_     [2]uint64 // pad to one 64-byte cache line
}

// clhSlot is one nesting level's node state for one thread.
type clhSlot struct {
	mine *clhNode // node this thread will enqueue next
	pred *clhNode // predecessor's node, remembered from Lock to Unlock
}

// CLH is the Craig/Landin/Hagersten queue lock, the other classic local-
// spin queue lock (the HCLH lock of Luchangco et al. builds its hierarchy
// from it). Waiters spin on their predecessor's node rather than their
// own.
//
// The tail is a versioned word — (version << 32) | node-index into the
// lock's fixed node table — rather than a raw pointer. Lock still pays a
// single atomic read-modify-write (a CAS loop degenerating to one CAS
// when uncontended); the version exists for TryLock: CLH nodes rotate
// owners, so a released tail node can be adopted, recycled and
// re-enqueued (now locked) between a TryLock's freeness check and its
// CAS — a classic ABA that a version stamp on every tail mutation makes
// detectable. A successful TryLock CAS therefore proves the tail (and
// the predecessor's era) never changed since the check.
//
// # Timed acquisition
//
// A timed waiter that expires self-unlinks with one tail CAS when it is
// last (swinging the tail back to its predecessor), or — when a
// successor already waits on its node — abandons in place: it publishes
// its predecessor in predp, sets aband, and wakes the successor. The
// successor's ready predicate covers both outcomes (!locked || aband);
// on aband it re-targets its wait to predp and recycles the tombstone
// into the lock's freelist, from which abandoners drew the replacement
// node their slot needs. An empty freelist degrades gracefully: the
// expired waiter finishes the acquire untimed, releases immediately,
// and reports failure — slower, never wrong.
type CLH struct {
	tail  atomic.Uint64
	wait  waiter.Policy
	nodes []*clhNode // index → node, fixed at construction
	slots [][MaxNesting]clhSlot
	free  clhFreelist
}

// NewCLH returns a CLH lock usable by threads with IDs below maxThreads.
func NewCLH(maxThreads int) *CLH {
	l := &CLH{slots: make([][MaxNesting]clhSlot, maxThreads), wait: waiter.Default}
	newNode := func() *clhNode {
		n := &clhNode{idx: uint32(len(l.nodes))}
		n.ready = func() bool { return !n.locked.Load() || n.aband.Load() }
		l.nodes = append(l.nodes, n)
		return n
	}
	// The queue starts with a released sentinel node (index 0) as the
	// tail.
	sentinel := newNode()
	l.tail.Store(uint64(sentinel.idx))
	for i := range l.slots {
		for j := range l.slots[i] {
			l.slots[i][j].mine = newNode()
		}
	}
	// Freelist spares replace the nodes abandoners leave in the queue.
	// One per thread covers the steady state (each tombstone has a live
	// successor reclaiming it within its own wait); exhaustion is not a
	// correctness event, it just forces the degraded timed path.
	for i := 0; i < maxThreads; i++ {
		l.free.push(newNode())
	}
	return l
}

// clhFreelist is the spare-node stack abandonment cycles nodes
// through. A tiny spin latch suffices: pushes and pops are rare (one
// per abandonment), short, and never nested.
type clhFreelist struct {
	latch atomic.Uint32
	nodes []*clhNode
}

func (f *clhFreelist) lock() {
	var s spinwait.Spinner
	for !f.latch.CompareAndSwap(0, 1) {
		s.Pause()
	}
}

func (f *clhFreelist) push(n *clhNode) {
	f.lock()
	f.nodes = append(f.nodes, n)
	f.latch.Store(0)
}

func (f *clhFreelist) pop() *clhNode {
	f.lock()
	var n *clhNode
	if len(f.nodes) > 0 {
		n = f.nodes[len(f.nodes)-1]
		f.nodes = f.nodes[:len(f.nodes)-1]
	}
	f.latch.Store(0)
	return n
}

// recycle resets an abandoned tombstone and returns it to the
// freelist. The caller must be the node's unique reclaimer (the one
// waiter that observed aband), after which nobody else references it.
func (l *CLH) recycle(n *clhNode) {
	n.aband.Store(false)
	n.locked.Store(false)
	n.predp.Store(nil)
	l.free.push(n)
}

// swapTail installs idx as the new tail and returns the previous tail's
// node, bumping the version stamp. Uncontended this is one CAS.
func (l *CLH) swapTail(idx uint32) *clhNode {
	for {
		old := l.tail.Load()
		nv := (old>>32+1)<<32 | uint64(idx)
		if l.tail.CompareAndSwap(old, nv) {
			return l.nodes[uint32(old)]
		}
	}
}

// SetWait implements waiter.Setter. Call before the lock is shared.
func (l *CLH) SetWait(p waiter.Policy) { l.wait = p }

// Lock enqueues t's node and waits on the predecessor's node.
func (l *CLH) Lock(t *Thread) {
	slot := &l.slots[t.ID][t.AcquireSlot()]
	n := slot.mine
	n.locked.Store(true)
	pred := l.swapTail(n.idx)
	slot.pred = pred
	if !pred.locked.Load() {
		return // uncontended: predecessor already released; skip the policy
	}
	l.acquireSlow(slot, pred)
}

// acquireSlow waits on pred, re-targeting past abandoned predecessors
// (recycling each tombstone) until a real release grants the lock.
func (l *CLH) acquireSlow(slot *clhSlot, pred *clhNode) {
	for {
		l.wait.Prepare(&pred.wait)
		l.wait.Wait(&pred.wait, pred.ready)
		if !pred.aband.Load() {
			return // !locked: granted
		}
		// pred abandoned: adopt its predecessor as ours and recycle the
		// tombstone (aband was stored after predp, so the load below is
		// ordered; after recycle the node is someone else's to reuse).
		np := pred.predp.Load()
		l.recycle(pred)
		pred = np
		slot.pred = np
		if !pred.locked.Load() {
			return
		}
	}
}

// TryLock implements Mutex: enqueue behind the tail only when the tail
// node is already released, i.e. the lock is free. The CAS doubles as
// the ABA check (see CLH.tail): success proves no enqueue or recycle
// intervened since the freeness read, so the post-CAS state is exactly
// the uncontended Lock path's. On failure nothing was published and the
// nesting slot is returned. (An abandoned tombstone at the tail reads
// as locked, so TryLock fails conservatively until a Lock bypasses it.)
func (l *CLH) TryLock(t *Thread) bool {
	old := l.tail.Load()
	pred := l.nodes[uint32(old)]
	if pred.locked.Load() {
		return false
	}
	slot := &l.slots[t.ID][t.AcquireSlot()]
	n := slot.mine
	n.locked.Store(true)
	if !l.tail.CompareAndSwap(old, (old>>32+1)<<32|uint64(n.idx)) {
		n.locked.Store(false) // never published; undo for the next attempt
		t.ReleaseSlot()
		return false
	}
	slot.pred = pred
	return true
}

// LockTimeout implements Mutex (see the type comment's timed
// acquisition protocol).
func (l *CLH) LockTimeout(t *Thread, d time.Duration) bool {
	slot := &l.slots[t.ID][t.AcquireSlot()]
	n := slot.mine
	deadline := time.Now().Add(d)
	n.locked.Store(true)
	pred := l.swapTail(n.idx)
	slot.pred = pred
	for {
		if !pred.locked.Load() {
			return true
		}
		l.wait.Prepare(&pred.wait)
		if l.wait.WaitUntil(&pred.wait, pred.ready, deadline) {
			if !pred.aband.Load() {
				return true
			}
			np := pred.predp.Load()
			l.recycle(pred)
			pred = np
			slot.pred = np
			continue
		}
		break // expired (an abandoned pred flips ready, so this is a real expiry)
	}
	// Self-unlink when last: swing the tail back to our predecessor.
	// Success proves no successor enqueued (the version stamp rules out
	// recycling races), so the node is private again and stays ours.
	cur := l.tail.Load()
	if uint32(cur) == n.idx && l.tail.CompareAndSwap(cur, (cur>>32+1)<<32|uint64(pred.idx)) {
		n.locked.Store(false)
		slot.pred = nil
		t.ReleaseSlot()
		return false
	}
	// A successor waits on our node. Leave a tombstone it will bypass
	// and recycle: publish our predecessor first, then the abandon
	// flag, then wake the successor (it may be parked on our node). Our
	// slot needs a replacement node; if the freelist is dry, fall back
	// to finishing the acquire untimed and releasing immediately.
	replacement := l.free.pop()
	if replacement == nil {
		l.acquireSlow(slot, pred)
		l.unlockSlot(slot)
		t.ReleaseSlot()
		return false
	}
	n.predp.Store(pred)
	n.aband.Store(true)
	l.wait.Wake(&n.wait)
	slot.mine = replacement
	slot.pred = nil
	t.ReleaseSlot()
	return false
}

// Unlock releases the lock and adopts the predecessor's node for reuse.
func (l *CLH) Unlock(t *Thread) {
	l.unlockSlot(&l.slots[t.ID][t.ReleaseSlot()])
}

func (l *CLH) unlockSlot(slot *clhSlot) {
	n := slot.mine
	slot.mine = slot.pred // adopt predecessor's (now quiescent) node
	slot.pred = nil
	n.locked.Store(false)
	// The successor (if any) parked on our node's state; wake it after
	// publishing the release. A no-op when nobody is parked there.
	l.wait.Wake(&n.wait)
}

// Name implements Mutex.
func (l *CLH) Name() string { return "CLH" + l.wait.Suffix() }

// FreeNodes reports the freelist depth (tests: after quiescence every
// abandonment's tombstone must have been recycled, restoring the
// constructed spare count).
func (l *CLH) FreeNodes() int {
	l.free.lock()
	n := len(l.free.nodes)
	l.free.latch.Store(0)
	return n
}
