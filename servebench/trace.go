package main

import (
	"context"
	"runtime/metrics"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gonative"
	"repro/internal/kvserver"
	"repro/internal/lockreg"
	"repro/internal/locks"
	"repro/internal/numa"
)

// The traced run records spans from benchmark code only: the request
// span around each Server call (worker.tracedDo), and the lock and hold
// spans inside tracedLock, a timing shim the server installs through a
// benchmark-built lockreg.Spec. Spans of one request meet in the
// requesting worker's acqRec.

// acqRec is the lock layer's record of one request's shard-lock
// acquisition, written by the shim on the requesting goroutine.
type acqRec struct {
	seq                 uint64 // the worker's request sequence number
	start, acquired     int64  // lock span (acquired = expiry when timedOut)
	release, released   int64  // unlock span; the hold span is acquired..release
	timedOut, contended bool
}

// tracer owns the traced server's shared slot pool and its shard shims.
type tracer struct {
	pool    *gonative.Pool
	locks   []*tracedLock
	workers []*worker
}

// tracedSpec returns the server's default lock Spec with a Native
// builder that builds the lock as the server would — go-native over one
// shared slot pool — plus statistics, wrapped in the timing shim. The
// default is read off a one-shard default server, so a change of the
// server's default lock is traced too.
func (tr *tracer) tracedSpec() lockreg.Spec {
	name := kvserver.New(kvserver.Config{Shards: 1}).LockNames()[0]
	def := lockreg.MustSpec(name)
	tr.pool = gonative.NewPool(gonative.DefaultCapacity(), numa.Topology{})
	spec := def
	spec.RW = false // the shim is exclusive-only
	spec.Native = func(env lockreg.Env, opts ...lockreg.Option) locks.TimedNativeMutex {
		opts = append(slices.Clip(opts), lockreg.WithStats(true))
		var m locks.TimedNativeMutex
		if def.Native != nil {
			m = def.Native(env, opts...)
		} else {
			m = gonative.WrapWithPool(def, env, tr.pool, opts...)
		}
		l := &tracedLock{m: m, tr: tr}
		tr.locks = append(tr.locks, l)
		return l
	}
	return spec
}

// caller identifies the worker whose goroutine is calling the shim, or
// nil when none matches (the stack moved): such a request is counted
// but not joined.
func (tr *tracer) caller() *worker {
	p := stackAddr()
	for _, wk := range tr.workers {
		if wk.sp > p && wk.sp-p < maxDepth {
			return wk
		}
	}
	return nil
}

// tracedLock is the timing shim around one shard lock. inflight counts
// goroutines between entering Lock and leaving the critical section, so
// an arrival that finds it non-zero found the lock held or queued.
type tracedLock struct {
	m        locks.TimedNativeMutex
	tr       *tracer
	inflight atomic.Int32
	holder   *worker // written by the acquirer, read by Unlock; lock-protected
}

func (l *tracedLock) Lock() {
	wk := l.tr.caller()
	t0 := now()
	contended := l.inflight.Add(1) > 1
	l.m.Lock()
	l.acquired(wk, t0, contended)
}

func (l *tracedLock) LockTimeout(d time.Duration) bool {
	wk := l.tr.caller()
	t0 := now()
	contended := l.inflight.Add(1) > 1
	if !l.m.LockTimeout(d) {
		t1 := now()
		l.inflight.Add(-1)
		if wk != nil {
			wk.rec = acqRec{seq: wk.seq, start: t0, acquired: t1, timedOut: true, contended: contended}
		}
		return false
	}
	l.acquired(wk, t0, contended)
	return true
}

func (l *tracedLock) acquired(wk *worker, t0 int64, contended bool) {
	t1 := now()
	l.holder = wk
	if wk != nil {
		wk.rec = acqRec{seq: wk.seq, start: t0, acquired: t1, contended: contended}
	}
}

// TryLock is not on the server's request paths; it keeps the shim's
// bookkeeping consistent without recording spans.
func (l *tracedLock) TryLock() bool {
	if !l.m.TryLock() {
		return false
	}
	l.inflight.Add(1)
	l.holder = nil
	return true
}

func (l *tracedLock) LockContext(ctx context.Context) error {
	return gonative.LockWithContext(ctx, l)
}

func (l *tracedLock) Unlock() {
	wk := l.holder
	l.holder = nil
	l.inflight.Add(-1)
	t2 := now()
	l.m.Unlock()
	t3 := now()
	if wk != nil {
		wk.rec.release, wk.rec.released = t2, t3
	}
}

func (l *tracedLock) Name() string { return l.m.Name() }

// spanLog holds one worker's joined spans for one phase, in ns.
type spanLog struct {
	wait, hold, unlock, self []uint32
	requests, joined         uint64
	contended, timedOut      uint64
}

// spanCap bounds the samples kept per worker and phase.
const spanCap = 1 << 20

func newSpanLog() *spanLog {
	return &spanLog{
		wait:   make([]uint32, 0, spanCap),
		hold:   make([]uint32, 0, spanCap),
		unlock: make([]uint32, 0, spanCap),
		self:   make([]uint32, 0, spanCap),
	}
}

func (s *spanLog) reset() {
	*s = spanLog{wait: s.wait[:0], hold: s.hold[:0], unlock: s.unlock[:0], self: s.self[:0]}
}

func ns(d int64) uint32 { return uint32(min(max(d, 0), shedNs-1)) }

// tracedDo is runner.do inside a request span, joined with the lock
// layer's spans for the same request.
func (wk *worker) tracedDo(r *runner, req uint64) (write, served bool) {
	wk.seq++
	t0 := now()
	write, served = r.do(wk, req)
	t1 := now()
	s, rec := wk.tr, &wk.rec
	s.requests++
	if rec.seq != wk.seq {
		return write, served
	}
	s.joined++
	if rec.contended {
		s.contended++
	}
	if rec.timedOut {
		s.timedOut++
	}
	if len(s.wait) == cap(s.wait) {
		return write, served
	}
	s.wait = append(s.wait, ns(rec.acquired-rec.start))
	if rec.timedOut {
		s.self = append(s.self, ns(t1-t0-(rec.acquired-rec.start)))
		return write, served
	}
	s.hold = append(s.hold, ns(rec.release-rec.acquired))
	s.unlock = append(s.unlock, ns(rec.released-rec.release))
	s.self = append(s.self, ns(t1-t0-(rec.released-rec.start)))
	return write, served
}

// lockStats sums the CNA statistics of every traced shard lock; read
// only while the server is idle.
type lockStats struct{ local, remote, moves, flushes uint64 }

func (tr *tracer) lockStats() lockStats {
	var s lockStats
	for _, l := range tr.locks {
		gm, ok := l.m.(*gonative.Mutex)
		if !ok {
			continue
		}
		cl, ok := gm.Inner().(*core.Lock)
		if !ok {
			continue
		}
		st := cl.Stats()
		local, remote := st.Handover.Counts()
		s.local += local
		s.remote += remote
		s.moves += st.SecondaryMoves
		s.flushes += st.Flushes
	}
	return s
}

func (a lockStats) sub(b lockStats) lockStats {
	return lockStats{a.local - b.local, a.remote - b.remote, a.moves - b.moves, a.flushes - b.flushes}
}

// runtimeSample holds the runtime's allocation and CPU-class counters.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func readRuntime() runtimeSample {
	ms := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(ms)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(ms[0]), val(ms[1]), val(ms[2])}
}

// tracedRep is one traced closed-loop repetition's per-layer numbers.
type tracedRep struct {
	waitP50, waitP99, unlockP50 float64
	holdP50, holdP99, selfP50   float64
	contended, timeoutFail      float64
	remote, movesPerK, flushesK float64
	allocPerOp, gcFrac          float64
	cpuUtil, late               float64
}

// summarize merges the workers' span logs for the phase just run, given
// the lock statistics and runtime counters it moved. Every request of a
// deadline workload is timed, so timeouts are counted against all.
func (r *runner) summarize(st lockStats, rt runtimeSample) tracedRep {
	var wait, hold, unlock, self []uint32
	var joined, contended, timedOut, requests uint64
	for _, wk := range r.workers {
		s := wk.tr
		wait = append(wait, s.wait...)
		hold = append(hold, s.hold...)
		unlock = append(unlock, s.unlock...)
		self = append(self, s.self...)
		joined += s.joined
		requests += s.requests
		contended += s.contended
		timedOut += s.timedOut
	}
	for _, s := range [][]uint32{wait, hold, unlock, self} {
		slices.Sort(s)
	}
	frac := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	kops := float64(max(requests, 1)) / 1000
	return tracedRep{
		waitP50:     float64(percentile(wait, 0.5)),
		waitP99:     float64(percentile(wait, 0.99)),
		unlockP50:   float64(percentile(unlock, 0.5)),
		holdP50:     float64(percentile(hold, 0.5)),
		holdP99:     float64(percentile(hold, 0.99)),
		selfP50:     float64(percentile(self, 0.5)),
		contended:   frac(contended, joined),
		timeoutFail: frac(timedOut, joined),
		remote:      frac(st.remote, st.local+st.remote),
		movesPerK:   float64(st.moves) / kops,
		flushesK:    float64(st.flushes) / kops,
		allocPerOp:  rt.allocBytes / float64(max(requests, 1)),
		gcFrac:      rt.gcCPU / max(rt.totalCPU, 1e-9),
	}
}
