package main

import (
	"sync/atomic"
	"time"
)

// Host calibration.
//
// The benchmark shares a few vCPUs of a host with other tenants, and
// what those tenants do moves the server by far more than the
// benchmark's bounds: on a 2-vCPU cloud VM the same binary's throughput
// and latencies moved by 40% within ten minutes, and for seconds at a
// time ran twice as fast. A reference store owned by the benchmark moves with the host,
// while no change to the repository can move it. So a run measures the
// reference beside the server in each regime and scales the server's
// figures to the speed the workload records for the reference:
//
//	throughput × RefOpsS / (reference closed-loop ops/s, same repetition)
//	latency    × RefP50Us / (reference open-loop p50, same repetition)
//	setup      × RefBuildS / (median time to build the reference)
//
// Each is what the server would have shown with the host at the
// reference speed. The reference open loop runs the workload's offered
// rate, so a host that slows spaced-out requests less than back-to-back
// ones scales latency and throughput each by its own measure. The raw
// figures and the reference's are printed on every rep line.
//
// The reference has the server's shape so the host moves both alike: one
// skiplist per shard with minikv's node size and level distribution,
// filled in key order, under an MCS queue lock per shard; an update
// searches twice (Get then Put), as kvserver's Update does.

const refLevels = 12

type refNode struct {
	key, val uint64
	next     [refLevels]*refNode
}

type refList struct {
	head  refNode
	level int
	lock  mcsLock
}

type mcsLock struct {
	tail atomic.Pointer[mcsNode]
	_    [56]byte
}

type mcsNode struct {
	next   atomic.Pointer[mcsNode]
	locked atomic.Uint32
	_      [52]byte
}

func (l *mcsLock) lock(n *mcsNode) {
	n.next.Store(nil)
	n.locked.Store(1)
	prev := l.tail.Swap(n)
	if prev == nil {
		return
	}
	prev.next.Store(n)
	for n.locked.Load() != 0 {
	}
}

func (l *mcsLock) unlock(n *mcsNode) {
	succ := n.next.Load()
	if succ == nil {
		if l.tail.CompareAndSwap(n, nil) {
			return
		}
		for succ = n.next.Load(); succ == nil; succ = n.next.Load() {
		}
	}
	succ.locked.Store(0)
}

// find returns the node holding key (every key is present).
func (s *refList) find(key uint64) *refNode {
	x := &s.head
	for lvl := s.level - 1; lvl >= 0; lvl-- {
		for nxt := x.next[lvl]; nxt != nil && nxt.key < key; nxt = x.next[lvl] {
			x = nxt
		}
	}
	return x.next[0]
}

type refStore struct {
	lists  []refList
	shards uint64
	qnodes []mcsNode // one per worker
}

func newRefStore(w workload, workers int) *refStore {
	s := &refStore{
		lists:  make([]refList, w.Shards),
		shards: uint64(w.Shards),
		qnodes: make([]mcsNode, workers),
	}
	tails := make([][refLevels]*refNode, w.Shards)
	for i := range s.lists {
		s.lists[i].level = 1
		for l := range tails[i] {
			tails[i][l] = &s.lists[i].head
		}
	}
	r := rng{s: permSeed}
	for k := range w.Keys {
		sh := uint64(k) % s.shards
		lvl := 1
		for lvl < refLevels && r.next()&3 == 0 {
			lvl++
		}
		s.lists[sh].level = max(s.lists[sh].level, lvl)
		n := &refNode{key: uint64(k)}
		for l := range lvl {
			tails[sh][l].next[l] = n
			tails[sh][l] = n
		}
	}
	return s
}

// do serves one request for worker id: a read returns the key's value,
// a write increments it.
func (s *refStore) do(id int, req uint64) uint64 {
	key := reqKey(req)
	lst := &s.lists[key%s.shards]
	q := &s.qnodes[id]
	lst.lock.lock(q)
	v := lst.find(key).val
	if isWrite(req) {
		lst.find(key).val = v + 1
	}
	lst.lock.unlock(q)
	return v
}

// reference runs the closed loop against the reference store for d on
// the runner's workers and returns its ops/s.
func (r *runner) reference(s *refStore, d time.Duration, split bool) float64 {
	start, _ := r.phase(split, func(wk *worker, start int64) {
		end := start + int64(d)
		var ops, sink uint64
		for {
			for i := 0; i < 32; i++ {
				sink += s.do(wk.id, wk.next())
			}
			ops += 32
			if t := now(); t >= end {
				wk.ops, wk.finish, wk.sink = ops, t, sink
				return
			}
		}
	})
	var ops uint64
	var last int64
	for _, wk := range r.workers {
		ops += wk.ops
		last = max(last, wk.finish)
	}
	return float64(ops) / time.Duration(last-start).Seconds()
}
