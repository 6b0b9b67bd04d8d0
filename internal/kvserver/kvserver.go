// Package kvserver is the end-to-end serving subsystem: a sharded
// in-process key-value store whose every shard mutex comes from the
// lock registry, driven by a built-in load generator with hot-key skew
// and per-operation-class SLO tracking. It is the layer that turns the
// lock library into a system — the microbenchmarks measure a lock in
// isolation; kvserver measures what a request path built on that lock
// delivers: throughput, tail latency and SLO violations under zipfian
// traffic at and beyond GOMAXPROCS.
//
// # Architecture
//
// A Server owns a fixed array of shards. Each shard is a hash-indexed
// value array guarded by one goroutine-native registry lock
// (internal/gonative), selected per shard at construction — so a
// single server can run CNA on half its shards and sync.Mutex on the
// other half, or any mix the experiment calls for. Requests are plain
// method calls (Get/Put/Update) from arbitrary goroutines; a
// multiplicative hash routes each key to its shard. All shard locks
// draw thread slots from one shared gonative.Pool, so the server's
// concurrent-acquisition bound is a single knob and idle shards hold
// no slot capacity hostage. Shards built on a reader-writer spec
// ("cna-rw", "std-rw", ...) serve Gets under read holds — concurrent
// readers share the shard, and only Put/Update take the write side.
//
// # Shard store
//
// Every request is a point operation on one key — there is no ordered
// or range API — so a shard needs no ordered structure: a Go map from
// key to position indexes a flat array of values, and a lookup costs
// one or two cache misses, which keeps critical sections short enough
// that lock handover, not the store, dominates. Every access holds the
// shard lock (or a read hold, and concurrent map reads are safe), so
// the store needs no concurrency of its own. Only inserting a new key
// writes the map; Put and Update on an existing key read the map and
// write the key's value word, and value words are loaded and stored
// atomically. So if a broken lock let two requests on existing keys
// overlap, they would lose an update — which counter checks such as
// the swap storm's catch — rather than race on the map, which the
// runtime may detect and abort the process for. Neither the map nor
// the array holds pointers, so the garbage collector never scans the
// store, and a key costs under 64 bytes of heap (footprint_test.go
// pins it).
//
// # Live policy swap
//
// SwapShard replaces a shard's lock while Get/Put storms continue, via
// a drain-and-validate handoff: swappers serialize on a per-shard
// control mutex, acquire the outgoing lock (draining the current
// holder), publish the replacement, and release the outgoing lock.
// Request paths acquire whatever lock the shard currently advertises
// and then re-validate that it is still the advertised one before
// touching data — a request that lost the race unlocks the stale lock
// and retries on the new one. Mutual exclusion over shard data
// therefore never depends on two locks at once: data is only touched
// under the lock that is current at validation time, and the swapper
// only publishes while holding the old lock, i.e. while nobody is in a
// critical section. Each successful swap bumps the shard's epoch, so
// tests and operators can count handoffs. The -race storm test in
// swap_test.go pins the no-lost-updates guarantee across ≥8 swaps
// under full Get/Put/Update load.
package kvserver

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gonative"
	"repro/internal/lockreg"
	"repro/internal/locks"
)

// ErrDeadline is returned by the *Within request forms when the shard
// lock could not be acquired within the request's budget. The request
// touched no data; the caller decides between retrying (with backoff)
// and shedding the request.
var ErrDeadline = errors.New("kvserver: deadline exceeded acquiring shard lock")

// shardLock pairs a built goroutine-native lock with the Spec it was
// built from, so reports and swap rotations know what is installed.
// The pointer identity of a shardLock is what acquire validates
// against: one swap, one new *shardLock.
type shardLock struct {
	m    locks.TimedNativeMutex
	spec lockreg.Spec
	// rw is the lock's reader-writer face when the spec has one
	// ("cna-rw", "std-rw", ...), nil otherwise. When set, m is the same
	// lock's write side, so the swap drain's m.Lock() drains readers and
	// writers alike.
	rw locks.NativeRWMutex
}

// lock takes a read hold (viaRead) or the write hold on l. A zero
// deadline waits as long as it takes; otherwise lock gives up, false,
// once the deadline passes.
func (l *shardLock) lock(viaRead bool, deadline time.Time) bool {
	switch {
	case deadline.IsZero() && viaRead:
		l.rw.RLock()
	case deadline.IsZero():
		l.m.Lock()
	case viaRead:
		return l.rw.RLockTimeout(time.Until(deadline))
	default:
		return l.m.LockTimeout(time.Until(deadline))
	}
	return true
}

// release retires a hold taken by lock.
func (l *shardLock) release(viaRead bool) {
	if viaRead {
		l.rw.RUnlock()
	} else {
		l.m.Unlock()
	}
}

// shard is one partition: an indexed value array under a swappable
// lock. Padded to a 64-byte stride so neighbouring shards' hot lock
// pointers do not false-share (TestShardStride pins the size).
type shard struct {
	// cur is the advertised lock. Request paths load it, acquire, and
	// re-validate; SwapShard publishes a replacement while holding the
	// previous lock.
	cur atomic.Pointer[shardLock]
	// epoch counts completed swaps.
	epoch atomic.Uint64
	// swapMu serializes swappers on this shard. Without it, two
	// concurrent swaps could publish over each other's lock without
	// holding it, re-opening the two-locks-live window the
	// drain-and-validate protocol exists to close.
	swapMu sync.Mutex
	// index maps each key to the position of its value in vals.
	index map[uint64]int
	// vals holds the values, loaded and stored atomically (see the
	// package comment's "Shard store").
	vals []uint64
	_    [8]byte
}

// slot returns the word holding key's value, or nil if key is absent.
// The caller holds the shard; the pointer is valid until the next
// insert.
func (s *shard) slot(key uint64) *uint64 {
	if i, ok := s.index[key]; ok {
		return &s.vals[i]
	}
	return nil
}

// get returns the value under key. The caller holds the shard, for
// reading at least.
func (s *shard) get(key uint64) (uint64, bool) {
	if p := s.slot(key); p != nil {
		return atomic.LoadUint64(p), true
	}
	return 0, false
}

// put stores value under key. The caller holds the shard for writing.
func (s *shard) put(key, value uint64) {
	if p := s.slot(key); p != nil {
		atomic.StoreUint64(p, value)
		return
	}
	s.insert(key, value)
}

// insert adds key, known to be absent, with value. The caller holds the
// shard for writing.
func (s *shard) insert(key, value uint64) {
	s.index[key] = len(s.vals)
	s.vals = append(s.vals, value)
}

// acquire locks the shard's current lock — for reading when read is
// set and the lock has a read side, exclusively otherwise — retrying
// when a swap won the race between the load and the acquisition.
// viaRead reports which hold the caller got (release with
// l.release(viaRead)), and the returned shardLock is the one the
// caller actually holds. A nil lock means the deadline passed first; a
// zero deadline never expires and never reads the clock. The retry
// loop keeps the original deadline, so a request that loses a swap
// race mid-wait does not restart its budget. The swap drain takes the
// write side, which waits out read holds too, so data is only touched
// under the lock that is current at validation time.
func (s *shard) acquire(read bool, deadline time.Time) (*shardLock, bool) {
	for {
		l := s.cur.Load()
		viaRead := read && l.rw != nil
		if !l.lock(viaRead, deadline) {
			return nil, false
		}
		if s.cur.Load() == l {
			return l, viaRead
		}
		// A swap completed while this goroutine was waiting: the lock it
		// now holds no longer guards the shard. Release and retry on the
		// newly advertised one.
		l.release(viaRead)
	}
}

// Config describes a Server.
type Config struct {
	// Shards is the partition count; values below 1 are raised to 1.
	Shards int
	// Locks supplies each shard's mutex policy at construction,
	// assigned round-robin: shard i gets Locks[i % len(Locks)]. Empty
	// means every shard runs CNA.
	Locks []lockreg.Spec
	// Env is the lock-construction environment (topology; MaxThreads is
	// overridden by the slot-pool capacity).
	Env lockreg.Env
	// PoolCapacity bounds concurrent lock acquisitions across the whole
	// server (the shared gonative slot pool). Zero means
	// gonative.DefaultCapacity().
	PoolCapacity int
	// Options are passed to every shard-lock construction (including
	// live swaps), so registry knobs — WithActiveSet / WithRotateEvery
	// for the "*-cr" admission gates, WithThreshold for CNA, ... —
	// reach the serving path.
	Options []lockreg.Option
}

// Server is the sharded KV store. Methods are safe for concurrent use
// from arbitrary goroutines; no *locks.Thread appears anywhere in the
// request path.
type Server struct {
	shards []shard
	pool   *gonative.Pool
	env    lockreg.Env
	opts   []lockreg.Option
}

// New builds a Server with cfg's shard count and per-shard lock
// policies.
func New(cfg Config) *Server {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if len(cfg.Locks) == 0 {
		cfg.Locks = []lockreg.Spec{lockreg.MustSpec("cna")}
	}
	if cfg.PoolCapacity < 1 {
		cfg.PoolCapacity = gonative.DefaultCapacity()
	}
	env := cfg.Env
	env.MaxThreads = cfg.PoolCapacity
	srv := &Server{
		shards: make([]shard, cfg.Shards),
		pool:   gonative.NewPool(cfg.PoolCapacity, env.Topology),
		env:    env,
		opts:   cfg.Options,
	}
	for i := range srv.shards {
		sh := &srv.shards[i]
		sh.index = make(map[uint64]int)
		spec := cfg.Locks[i%len(cfg.Locks)]
		sh.cur.Store(srv.buildLock(spec))
	}
	return srv
}

// buildLock constructs spec's shardLock in goroutine-native form over
// the server's shared slot pool (specs with their own native build —
// the stdlib baselines — need no slots and bypass the pool). Specs
// with a read side are built through the RW adapter, so read-mostly
// shards serve Gets under genuinely parallel read holds; the
// shardLock's m is then the same lock's write side.
func (s *Server) buildLock(spec lockreg.Spec) *shardLock {
	if spec.RW {
		if rwm, err := gonative.WrapRWWithPool(spec, s.env, s.pool, s.opts...); err == nil {
			return &shardLock{m: rwm, spec: spec, rw: rwm}
		}
	}
	if spec.Native != nil {
		return &shardLock{m: spec.Native(s.env, s.opts...), spec: spec}
	}
	return &shardLock{m: gonative.WrapWithPool(spec, s.env, s.pool, s.opts...), spec: spec}
}

// shardFor routes a key to its shard (same multiplicative hash as the
// minikv sharded LRU, so hot ranks spread across shards).
func (s *Server) shardFor(key uint64) *shard {
	h := key * 0x9e3779b97f4a7c15
	return &s.shards[h%uint64(len(s.shards))]
}

// Get returns the value stored under key. On shards whose lock has a
// read side, concurrent Gets share the shard under read holds.
func (s *Server) Get(key uint64) (uint64, bool) {
	sh := s.shardFor(key)
	l, viaRead := sh.acquire(true, time.Time{})
	v, ok := sh.get(key)
	l.release(viaRead)
	return v, ok
}

// Put stores value under key.
func (s *Server) Put(key, value uint64) {
	sh := s.shardFor(key)
	l, _ := sh.acquire(false, time.Time{})
	sh.put(key, value)
	l.m.Unlock()
}

// GetWithin is Get with an admission deadline: if the shard lock is
// not acquired within d, the request is abandoned untouched and
// ErrDeadline returned. A non-positive d degrades to a single TryLock
// probe.
func (s *Server) GetWithin(key uint64, d time.Duration) (uint64, bool, error) {
	sh := s.shardFor(key)
	l, viaRead := sh.acquire(true, time.Now().Add(d))
	if l == nil {
		return 0, false, ErrDeadline
	}
	v, found := sh.get(key)
	l.release(viaRead)
	return v, found, nil
}

// PutWithin is Put with an admission deadline (see GetWithin).
func (s *Server) PutWithin(key, value uint64, d time.Duration) error {
	sh := s.shardFor(key)
	l, _ := sh.acquire(false, time.Now().Add(d))
	if l == nil {
		return ErrDeadline
	}
	sh.put(key, value)
	l.m.Unlock()
	return nil
}

// Update applies f to the current value under key (ok reports whether
// the key existed) and stores the result, all under the shard lock —
// the read-modify-write the swap storm test counter-checks: a lost or
// doubled Update would break the final sum.
func (s *Server) Update(key uint64, f func(old uint64, ok bool) uint64) uint64 {
	sh := s.shardFor(key)
	l, _ := sh.acquire(false, time.Time{})
	var v uint64
	if p := sh.slot(key); p != nil {
		v = f(atomic.LoadUint64(p), true)
		atomic.StoreUint64(p, v)
	} else {
		v = f(0, false)
		sh.insert(key, v)
	}
	l.m.Unlock()
	return v
}

// Shards returns the partition count.
func (s *Server) Shards() int { return len(s.shards) }

// Len returns the total number of keys across all shards (takes every
// shard lock in turn, for reading where the lock allows it).
func (s *Server) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		l, viaRead := sh.acquire(true, time.Time{})
		n += len(sh.index)
		l.release(viaRead)
	}
	return n
}

// LockNames reports each shard's currently installed lock, in shard
// order.
func (s *Server) LockNames() []string {
	out := make([]string, len(s.shards))
	for i := range s.shards {
		out[i] = s.shards[i].cur.Load().spec.Name
	}
	return out
}

// Epoch returns shard i's swap count.
func (s *Server) Epoch(i int) uint64 { return s.shards[i].epoch.Load() }

// Epochs returns the total swap count across shards.
func (s *Server) Epochs() uint64 {
	var n uint64
	for i := range s.shards {
		n += s.shards[i].epoch.Load()
	}
	return n
}

// PoolStats reports (free, capacity) of the shared thread-slot pool —
// after quiescence free must equal capacity, the leak check the storm
// tests use.
func (s *Server) PoolStats() (free, capacity int) {
	return s.pool.Free(), s.pool.Capacity()
}

// SwapShard replaces shard i's lock with a fresh instance built from
// spec, draining the current holder first (see the package comment for
// the protocol). It returns the epoch after the swap. Safe to call
// concurrently with request traffic and with other SwapShard calls.
func (s *Server) SwapShard(i int, spec lockreg.Spec) uint64 {
	if i < 0 || i >= len(s.shards) {
		panic(fmt.Sprintf("kvserver: SwapShard(%d) on a %d-shard server", i, len(s.shards)))
	}
	sh := &s.shards[i]
	nl := s.buildLock(spec)

	sh.swapMu.Lock()
	old := sh.cur.Load()
	// Drain: once this Lock returns, no request is inside the shard's
	// critical section, and none can re-enter under old — any acquirer
	// of old from here on fails validation against the new pointer.
	old.m.Lock()
	sh.cur.Store(nl)
	epoch := sh.epoch.Add(1)
	old.m.Unlock()
	sh.swapMu.Unlock()
	return epoch
}

// SwapAll swaps every shard to spec and returns the server-wide swap
// total afterwards.
func (s *Server) SwapAll(spec lockreg.Spec) uint64 {
	for i := range s.shards {
		s.SwapShard(i, spec)
	}
	return s.Epochs()
}
