// Package gonative makes every registered lock usable from plain Go
// code: New("cna") returns a locks.NativeMutex — a sync.Locker with
// TryLock — with no *locks.Thread in sight, so a CNA (or MCS, or
// cohort, ...) lock can replace a sync.Mutex field one line at a time.
//
// The explicit-thread API exists because queue locks need a stable
// identity: a dense id locating preallocated queue nodes, a NUMA
// socket, a nesting counter. Goroutines have none of that — they
// migrate freely between OS threads and expose no usable id — so the
// adapter supplies identity per acquisition instead of per worker:
// Lock claims a *locks.Thread from a pool of preallocated slots, runs
// the real lock's protocol on it, and remembers it in the (held)
// mutex; Unlock releases the inner lock on that thread and returns the
// slot. Compact Java Monitors (Dice & Kogan 2021) hides thread
// identity behind the lock the same way to make CNA a drop-in
// replacement for synchronized blocks.
//
// # The slot pool
//
// The pool is a free-slot bitmap. Each socket's slots (socket-aware
// via numa.Placement when the Env carries a topology; the default
// topology round-robins workers across its sockets) get consecutive
// thread IDs in stripes of at most 64, and each stripe is one
// cache-line-padded word whose bit i means "thread base+i is free". A
// thread's socket is fixed at construction to its stripe's socket. A
// claim starts at the stripe hinted by the goroutine's stack address
// and CASes off the lowest set bit, falling over to the next stripes
// when the hinted one is empty; lowest-bit-first keeps reusing the
// same few slots, whose queue-node cache lines stay hot. A release is
// one atomic Or into the slot's home stripe, so a lock/unlock pair
// costs the adapter two atomic RMWs, and nothing allocates. The RW
// adapter keeps its in-flight readers in a second bitmap of the same
// layout, indexed by thread ID.
//
// When every slot is claimed, Lock waits (bounded spin, then scheduler
// yields) for an Unlock to free one — the adapter never hands out more
// concurrent identities than the inner lock was built for, so queue
// nodes can never be corrupted by over-admission; the wait shows up as
// ordinary lock latency. TryLock instead fails cleanly when no slot is
// free, mirroring its never-blocks contract. Lock-nesting depth
// exhaustion cannot arise through the adapter at all: every
// acquisition claims a fresh slot at depth 0 (enforced with a clear
// panic rather than node corruption if the invariant is ever broken).
package gonative

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/lockreg"
	"repro/internal/locks"
	"repro/internal/locks/fissile"
	"repro/internal/numa"
	"repro/internal/spinwait"
)

// word is one stripe of a bitmap: bit i stands for thread base+i. It
// fills a cache line of its own, so CASes on neighbouring stripes do
// not false-share.
type word struct {
	bits atomic.Uint64
	base int
	_    [48]byte
}

// bitmap is a lock-free set of a pool's Threads, kept in stripes of
// at most 64 consecutive thread IDs. home maps a thread ID to its
// stripe and bit (stripe<<6 | bit) and threads maps it back to the
// Thread; both are fixed at construction and shared by every bitmap of
// one pool's layout.
type bitmap struct {
	words   []word
	home    []uint32
	threads []*locks.Thread
}

// add puts th into the set: one atomic Or on its home stripe.
func (b *bitmap) add(th *locks.Thread) {
	h := b.home[th.ID]
	b.words[h>>6].bits.Or(1 << (h & 63))
}

// take removes some member and returns it, nil when the set is empty.
// One pass over the stripes, starting at the one the stripe hint
// names; a nonempty stripe loses its lowest set bit by CAS. TryLock
// builds on this: it must not block, not even on slots.
func (b *bitmap) take() *locks.Thread {
	n := len(b.words)
	j := int(stripeHint() % uintptr(n))
	for i := 0; i < n; i++ {
		w := &b.words[j]
		for m := w.bits.Load(); m != 0; m = w.bits.Load() {
			if w.bits.CompareAndSwap(m, m&(m-1)) {
				return b.threads[w.base+bits.TrailingZeros64(m)]
			}
		}
		if j++; j == n {
			j = 0
		}
	}
	return nil
}

// count sums the stripes' popcounts; exact only at quiescence.
func (b *bitmap) count() int {
	total := 0
	for i := range b.words {
		total += bits.OnesCount64(b.words[i].bits.Load())
	}
	return total
}

// emptyCopy returns an empty bitmap with b's layout.
func (b *bitmap) emptyCopy() bitmap {
	words := make([]word, len(b.words))
	for i := range words {
		words[i].base = b.words[i].base
	}
	return bitmap{words: words, home: b.home, threads: b.threads}
}

// Pool is a set of preallocated *locks.Thread slots shared by the
// acquisitions of one adapted lock (or of many, when adapters are
// built over one pool via WrapWithPool — a thread occupies at most one
// slot per acquisition regardless of which lock it is for).
type Pool struct {
	free bitmap
}

// NewPool preallocates capacity Thread slots striped across the
// topology's sockets. Capacities below 1 are raised to 1.
func NewPool(capacity int, topo numa.Topology) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	if topo.Validate() != nil {
		topo = numa.TwoSocketXeonE5()
	}
	perSocket := numa.NewPlacement(topo, capacity, numa.Spread).PerSocketCounts()
	stripes := 0
	for _, n := range perSocket {
		stripes += (n + 63) / 64
	}
	free := bitmap{
		words:   make([]word, stripes),
		home:    make([]uint32, capacity),
		threads: make([]*locks.Thread, capacity),
	}
	id, s := 0, 0
	for socket, n := range perSocket {
		for ; n > 0; n -= 64 {
			size := min(n, 64)
			w := &free.words[s]
			w.base = id
			w.bits.Store(^uint64(0) >> (64 - size))
			for bit := 0; bit < size; bit++ {
				free.threads[id] = locks.NewThread(id, socket)
				free.home[id] = uint32(s<<6 | bit)
				id++
			}
			s++
		}
	}
	return &Pool{free: free}
}

// stripeHint derives a cheap goroutine-correlated stripe index from the
// goroutine's stack address: stacks are goroutine-private and mostly
// stable, so one goroutine keeps hitting one stripe (and, lowest bit
// first, often the very slot it just released) without any shared
// counter to contend on. Goroutines at equal call depth share a stripe
// — their stacks are equally aligned — and spreading them with a
// higher shift measured slower on the serving benchmark. Only the hint
// quality depends on this; any value is correct. A variable so the
// pool tests can pin the hint.
var stripeHint = func() uintptr {
	var probe byte
	return uintptr(unsafe.Pointer(&probe)) >> 10
}

// claim takes a free slot, waiting (bounded spin, then scheduler
// yields) for a release while every slot is busy. A zero deadline
// waits forever; otherwise claim returns nil once the deadline passes,
// with the clock probes amortized as in locks.PollTimeout. Every
// acquisition runs on a fresh slot at depth 0, so a nested slot means
// the adapter itself is broken: claim panics rather than corrupt a
// queue node.
func (p *Pool) claim(deadline time.Time) *locks.Thread {
	th := p.free.take()
	var w spinwait.Spinner
	for n := 1; th == nil; n++ {
		w.Pause()
		th = p.free.take()
		if th == nil && !deadline.IsZero() && (w.Yielding() || n%64 == 0) && !time.Now().Before(deadline) {
			return nil
		}
	}
	if th.Depth() != 0 {
		panic(fmt.Sprintf("gonative: pooled thread %d claimed at nesting depth %d", th.ID, th.Depth()))
	}
	return th
}

// Capacity reports the number of preallocated slots.
func (p *Pool) Capacity() int { return len(p.free.threads) }

// Free counts currently free slots, for the leak checks in tests:
// after quiescence Free must equal Capacity.
func (p *Pool) Free() int { return p.free.count() }

// noCopy makes `go vet`'s copylocks analysis flag any copy of the
// embedding struct (the same device sync.noCopy uses): a copied Mutex
// would alias the holder field and the inner lock's queue state.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Mutex adapts a registered lock to the goroutine-native contract. The
// zero value is not usable; build one with New (or Wrap). A Mutex must
// not be copied after first use (go vet's copylocks check enforces
// this via the embedded noCopy).
type Mutex struct {
	noCopy noCopy
	inner  locks.Mutex
	// fast is set iff the inner lock is a Fissile composite, as a
	// concrete pointer so the uncontended path is one predictable
	// branch plus an inlinable CAS — an interface dispatch here would
	// cost more than the CAS it guards. When set, Lock/TryLock try the
	// one-CAS fast path before touching the slot pool at all, Unlock is
	// a single RMW with no slot involved, and only the contended
	// fallback claims a Thread (returning it before the critical
	// section runs, since a Fissile critical section holds only the
	// outer word). This is what closes the adapter-overhead gap to
	// sync.Mutex: the common case allocates nothing and touches no
	// slot pool.
	fast *fissile.Lock
	pool *Pool
	// holder is the Thread the current acquisition claimed, handed from
	// Lock to Unlock through the mutex itself. It is a plain field: it
	// is written only after the inner lock is acquired and read only
	// before it is released, so accesses from successive critical
	// sections are ordered by the lock's own handover — and, as with
	// sync.Mutex, handing one critical section between goroutines
	// requires the caller's own synchronization.
	holder *locks.Thread
}

// Lock implements locks.NativeMutex (and sync.Locker): claim a thread
// slot, run the real acquisition on it. A Fissile inner lock claims
// the slot only on the contended fallback — and returns it before the
// critical section, because Fissile holds nothing but its outer word
// across the caller's critical section.
func (m *Mutex) Lock() {
	if f := m.fast; f != nil {
		if f.TryFast() {
			return
		}
		th := m.pool.claim(time.Time{})
		f.LockSlow(th)
		m.pool.free.add(th)
		return
	}
	th := m.pool.claim(time.Time{})
	m.inner.Lock(th)
	m.holder = th
}

// TryLock implements locks.NativeMutex: non-blocking at both levels —
// it fails cleanly when no thread slot is free, and otherwise runs the
// inner lock's TryLock, which never queues (and never touches waiter
// state; see waiter.TryPolicy).
func (m *Mutex) TryLock() bool {
	if f := m.fast; f != nil {
		// Pure fast path: a fissile TryLock is the outer-word CAS and
		// nothing else — no slot, no pool, so it cannot fail for lack
		// of a slot either.
		return f.TryFast()
	}
	th := m.pool.free.take()
	if th == nil {
		return false
	}
	if !m.inner.TryLock(th) {
		m.pool.free.add(th)
		return false
	}
	m.holder = th
	return true
}

// LockTimeout implements locks.TimedNativeMutex. The slot claim and
// the inner acquisition share one deadline: a slot-starved adapter
// spends part (possibly all) of the budget waiting for an Unlock to
// free a slot, so the bounded-wait contract holds even when the inner
// lock is never reached. Every registered lock implements
// locks.TimedMutex; the TryLock-poll fallback only guards Mutexes
// hand-built over locks outside the registry. A non-positive d
// degrades to TryLock.
func (m *Mutex) LockTimeout(d time.Duration) bool {
	if d <= 0 {
		return m.TryLock()
	}
	if f := m.fast; f != nil {
		if f.TryFast() {
			return true
		}
		deadline := time.Now().Add(d)
		th := m.pool.claim(deadline)
		if th == nil {
			return false
		}
		ok := f.LockSlowTimeout(th, time.Until(deadline))
		m.pool.free.add(th)
		return ok
	}
	deadline := time.Now().Add(d)
	th := m.pool.claim(deadline)
	if th == nil {
		return false
	}
	var ok bool
	if tm, timed := m.inner.(locks.TimedMutex); timed {
		ok = tm.LockTimeout(th, time.Until(deadline))
	} else {
		ok = locks.PollTimeout(func() bool { return m.inner.TryLock(th) }, time.Until(deadline))
	}
	if !ok {
		m.pool.free.add(th)
		return false
	}
	m.holder = th
	return true
}

// LockContext acquires the mutex unless ctx is cancelled or its
// deadline passes first (see LockWithContext, which this forwards to).
func (m *Mutex) LockContext(ctx context.Context) error {
	return LockWithContext(ctx, m)
}

// LockWithContext drives any timed native mutex from a context: nil
// means the mutex is held; otherwise the context's error is returned
// and the mutex is untouched. The wait is chunked into millisecond
// timed acquires (locks.ContextLock), so cancellation — as opposed to
// deadline expiry — is observed with at most that lag.
func LockWithContext(ctx context.Context, m locks.TimedNativeMutex) error {
	return locks.ContextLock(ctx, m)
}

// Unlock implements locks.NativeMutex: release the inner lock on the
// claiming thread, then return the slot (in that order — the thread's
// queue node is in use until the release completes).
func (m *Mutex) Unlock() {
	if f := m.fast; f != nil {
		// Both fissile paths hold only the outer word here (the slow
		// path already returned its slot), so release is one RMW;
		// UnlockFast panics on an unlocked word.
		f.UnlockFast()
		return
	}
	th := m.holder
	if th == nil {
		panic("gonative: Unlock of an unlocked " + m.inner.Name())
	}
	m.holder = nil
	m.inner.Unlock(th)
	m.pool.free.add(th)
}

// Name implements locks.NativeMutex: the inner lock's registry name.
func (m *Mutex) Name() string { return m.inner.Name() }

// Inner exposes the adapted lock, e.g. to read CNA statistics after a
// WithStats build. The *Thread API must not be driven through it while
// the adapter is in use.
func (m *Mutex) Inner() locks.Mutex { return m.inner }

// PoolStats reports (free, capacity) of the adapter's slot pool.
func (m *Mutex) PoolStats() (free, capacity int) {
	return m.pool.Free(), m.pool.Capacity()
}

// DefaultCapacity is the slot-pool size New uses when the Env carries
// no thread bound: enough concurrent acquisitions to oversubscribe
// every processor severalfold before Lock ever waits for a slot.
func DefaultCapacity() int {
	c := 4 * runtime.GOMAXPROCS(0)
	if c < 8 {
		c = 8
	}
	return c
}

// New builds the named registered lock in goroutine-native form: the
// algorithm's own native build when the Spec has one (the stdlib
// baselines), otherwise the Spec's lock wrapped in the slot-pool
// adapter. A zero env.MaxThreads sizes the pool at DefaultCapacity —
// unlike the raw Build path, where it means one thread, the native
// adapter cannot know its caller count up front.
func New(name string, env lockreg.Env, opts ...lockreg.Option) (locks.TimedNativeMutex, error) {
	spec, ok := lockreg.Lookup(name)
	if !ok {
		return nil, lockreg.UnknownLockError(name)
	}
	return Wrap(spec, env, opts...), nil
}

// MustNew is New for statically known names; it panics on unknown ones.
func MustNew(name string, env lockreg.Env, opts ...lockreg.Option) locks.TimedNativeMutex {
	m, err := New(name, env, opts...)
	if err != nil {
		panic(err)
	}
	return m
}

// Wrap builds spec in goroutine-native form (see New) with a private
// slot pool.
func Wrap(spec lockreg.Spec, env lockreg.Env, opts ...lockreg.Option) locks.TimedNativeMutex {
	if spec.Native != nil {
		return spec.Native(env, opts...)
	}
	if env.MaxThreads < 1 {
		env.MaxThreads = DefaultCapacity()
	}
	return WrapWithPool(spec, env, NewPool(env.MaxThreads, env.Topology), opts...)
}

// WrapWithPool builds spec's lock over an existing slot pool, so many
// adapted locks can share one set of thread identities (the pool
// analogue of a shared CNA Arena; the env's MaxThreads must not exceed
// the pool's capacity, or thread IDs would run past the lock's node
// storage). A Fissile inner lock is devirtualized into the concrete
// fast-path field (see Mutex.fast).
func WrapWithPool(spec lockreg.Spec, env lockreg.Env, pool *Pool, opts ...lockreg.Option) *Mutex {
	if env.MaxThreads < pool.Capacity() {
		env.MaxThreads = pool.Capacity()
	}
	m := &Mutex{inner: spec.Build(env, opts...), pool: pool}
	m.fast, _ = m.inner.(*fissile.Lock)
	return m
}

var _ locks.NativeMutex = (*Mutex)(nil)
var _ locks.TimedNativeMutex = (*Mutex)(nil)
