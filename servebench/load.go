package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/kvserver"
	"repro/internal/lockreg"
)

// base anchors the benchmark's monotonic clock; now() is one vDSO read.
var base = time.Now()

func now() int64 { return int64(time.Since(base)) }

// Values encode their key: the high 32 bits hold key+1, the low 32 bits a
// counter (Update workloads) or the writer's tag (PutWithin workloads).
// Prefill stores the tag with a zero counter.
func tag(key uint64) uint64 { return (key + 1) << 32 }

func encodesKey(v, key uint64) bool { return v>>32 == key+1 }

// incr is the Update body: a counter increment that yields an untagged
// value when the key is missing, so the caller's tag check fails.
func incr(old uint64, ok bool) uint64 {
	if !ok {
		return 0
	}
	return old + 1
}

// shedNs marks a request refused with kvserver.ErrDeadline in the
// latency samples: it sorts above every served request, so a shed
// request counts as one that missed any latency limit.
const shedNs = math.MaxUint32

// worker is one request-issuing goroutine's state against one server.
// Padded so the two workers' hot counters do not share a cache line.
type worker struct {
	id      int
	stream  []uint64
	pos     int
	updates uint64   // completed Updates
	lastPut []uint32 // per key: low word of this worker's last PutWithin, 0 if none
	putSeq  uint32
	bad     uint64 // failed correctness checks
	shed    uint64 // requests refused with ErrDeadline
	tries   uint64 // requests attempted

	// Per-phase samples and results.
	getLat, writeLat []uint32 // open loop: ns from due time
	late             uint64   // open loop: sends more than lateNs after due
	ops              uint64   // closed loop: served requests
	finish           int64    // closed loop: when the worker saw the end
	sink             uint64   // reference loop: sum of values read

	// Tracing (see trace.go): the published stack address, the sequence
	// number of the request in flight and the lock layer's record of it.
	sp  uintptr
	seq uint64
	rec acqRec
	tr  *spanLog
	_   [64]byte
}

// runner drives one server with a fixed set of workers.
type runner struct {
	w       workload
	srv     *kvserver.Server
	budget  time.Duration
	workers []*worker
	tr      *tracer // nil for the untraced server
}

// newRunner prepares the workers for one server; setup builds it.
func newRunner(w workload, streams [][]uint64) *runner {
	r := &runner{w: w, budget: time.Duration(w.BudgetNs)}
	for i, s := range streams {
		wk := &worker{id: i, stream: s}
		if r.budget > 0 {
			wk.lastPut = make([]uint32, w.Keys)
		}
		r.workers = append(r.workers, wk)
	}
	return r
}

// setup builds the server (locks nil means the default configuration)
// and prefills every key, returning the time that took.
func (r *runner) setup(locks []lockreg.Spec) time.Duration {
	r.srv = nil
	t0 := time.Now()
	srv := kvserver.New(kvserver.Config{Shards: r.w.Shards, Locks: locks})
	for k := 0; k < r.w.Keys; k++ {
		srv.Put(uint64(k), tag(uint64(k)))
	}
	d := time.Since(t0)
	r.srv = srv
	return d
}

// do issues one request and checks its result; it reports whether the
// request was a write and whether it was served (false: shed).
func (r *runner) do(wk *worker, req uint64) (write, served bool) {
	key := reqKey(req)
	write = isWrite(req)
	wk.tries++
	if r.budget > 0 {
		if write {
			wk.putSeq++
			low := uint32(wk.id+1)<<28 | wk.putSeq&(1<<28-1)
			if r.srv.PutWithin(key, tag(key)|uint64(low), r.budget) != nil {
				wk.shed++
				return write, false
			}
			wk.lastPut[key] = low
			return write, true
		}
		v, ok, err := r.srv.GetWithin(key, r.budget)
		if err != nil {
			wk.shed++
			return write, false
		}
		if !ok || !encodesKey(v, key) {
			wk.bad++
		}
		return write, true
	}
	if write {
		if !encodesKey(r.srv.Update(key, incr), key) {
			wk.bad++
		}
		wk.updates++
		return write, true
	}
	if v, ok := r.srv.Get(key); !ok || !encodesKey(v, key) {
		wk.bad++
	}
	return write, true
}

func (wk *worker) next() uint64 {
	req := wk.stream[wk.pos]
	wk.pos++
	if wk.pos == len(wk.stream) {
		wk.pos = 0
	}
	return req
}

// phase runs fn on every worker in its own goroutine, started together
// at the returned start time; split places worker 1 1 KiB deeper in its
// stack than worker 0 (see stack.go). It returns the process CPU time
// the phase consumed.
func (r *runner) phase(split bool, fn func(wk *worker, start int64)) (start int64, cpu time.Duration) {
	var ready, done sync.WaitGroup
	startCh := make(chan struct{})
	for _, wk := range r.workers {
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			growStack(24)
			// The published address lets the trace shim tell which
			// worker calls it (goroutines expose no id).
			wk.sp = stackAddr()
			ready.Done()
			<-startCh
			body := func() { fn(wk, start) }
			if wk.id == 1 && split {
				deep(body)
			} else {
				near(body)
			}
		}()
	}
	ready.Wait()
	cpu0 := cpuTime()
	start = now()
	close(startCh)
	done.Wait()
	return start, cpuTime() - cpu0
}

// closed runs the closed loop for d: each worker sends its next request
// as soon as the previous one completes. It returns served ops/s.
func (r *runner) closed(d time.Duration, split bool) (opsPerSec float64, cpuUtil float64) {
	for _, wk := range r.workers {
		wk.ops = 0
		if wk.tr != nil {
			wk.tr.reset()
		}
	}
	start, cpu := r.phase(split, func(wk *worker, start int64) {
		end := start + int64(d)
		for {
			for i := 0; i < 32; i++ {
				var served bool
				if wk.tr != nil {
					_, served = wk.tracedDo(r, wk.next())
				} else {
					_, served = r.do(wk, wk.next())
				}
				if served {
					wk.ops++
				}
			}
			if t := now(); t >= end {
				wk.finish = t
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
	wall := time.Duration(last - start)
	return float64(ops) / wall.Seconds(), utilization(cpu, wall)
}

// lateNs is how far past its due time a send may start before the
// generator counts it as late.
const lateNs = 1000

// open runs the open loop for d at rate ops/s split evenly over the
// workers: each keeps its own send schedule, spinning (not sleeping)
// between sends, and times each request from its due time. A non-nil
// ref sends the requests to the reference store instead of the server.
func (r *runner) open(d time.Duration, rate float64, split bool, ref *refStore) (lateFrac, cpuUtil float64) {
	n := len(r.workers)
	interval := float64(n) / rate * 1e9
	perWorker := int(d.Seconds()*rate/float64(n)) + 1
	for _, wk := range r.workers {
		wk.getLat = slices.Grow(wk.getLat[:0], perWorker)
		wk.writeLat = slices.Grow(wk.writeLat[:0], perWorker)
		wk.late = 0
		if wk.tr != nil {
			wk.tr.reset()
		}
	}
	_, cpu := r.phase(split, func(wk *worker, start int64) {
		first := float64(wk.id) * interval / float64(n)
		for i := 0; ; i++ {
			due := start + int64(first+float64(i)*interval)
			if due >= start+int64(d) {
				return
			}
			t := now()
			for t < due {
				t = now()
			}
			if t-due > lateNs {
				wk.late++
			}
			var write, served bool
			switch req := wk.next(); {
			case ref != nil:
				wk.sink += ref.do(wk.id, req)
				write, served = isWrite(req), true
			case wk.tr != nil:
				write, served = wk.tracedDo(r, req)
			default:
				write, served = r.do(wk, req)
			}
			lat := uint32(min(now()-due, shedNs-1))
			if !served {
				lat = shedNs
			}
			if write {
				wk.writeLat = append(wk.writeLat, lat)
			} else {
				wk.getLat = append(wk.getLat, lat)
			}
		}
	})
	var late, sent uint64
	for _, wk := range r.workers {
		late += wk.late
		sent += uint64(len(wk.getLat) + len(wk.writeLat))
	}
	return float64(late) / float64(max(sent, 1)), utilization(cpu, d)
}

// latencies merges the workers' open-loop samples of one class.
func (r *runner) latencies(write bool) []uint32 {
	var all []uint32
	for _, wk := range r.workers {
		if write {
			all = append(all, wk.writeLat...)
		} else {
			all = append(all, wk.getLat...)
		}
	}
	slices.Sort(all)
	return all
}

// percentile returns the nearest-rank p-quantile of sorted samples.
func percentile(sorted []uint32, p float64) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// verify checks the server after quiescence and returns the number of
// failed checks, with a reason per failing check.
func (r *runner) verify() (failed uint64, reasons []string) {
	var updates uint64
	for _, wk := range r.workers {
		failed += wk.bad
		updates += wk.updates
	}
	if failed > 0 {
		reasons = append(reasons, "a Get or Update returned a value that does not encode its key")
	}
	var sum, lost, stale uint64
	for k := 0; k < r.w.Keys; k++ {
		key := uint64(k)
		v, ok := r.srv.Get(key)
		if !ok || !encodesKey(v, key) {
			lost++
			continue
		}
		low := uint32(v)
		if r.budget == 0 {
			sum += uint64(low)
			continue
		}
		// PutWithin workloads: the final value is the last put of one
		// of the workers, or the prefill value when none wrote the key.
		wrote, matches := false, false
		for _, wk := range r.workers {
			if last := wk.lastPut[k]; last != 0 {
				wrote = true
				matches = matches || last == low
			}
		}
		if wrote && !matches || !wrote && low != 0 {
			stale++
		}
	}
	if lost > 0 {
		failed += lost
		reasons = append(reasons, fmt.Sprintf("%d keys lost their value", lost))
	}
	if stale > 0 {
		failed += stale
		reasons = append(reasons, fmt.Sprintf("%d keys do not hold their last write", stale))
	}
	if sum != updates {
		diff := int64(updates) - int64(sum)
		failed += uint64(max(diff, -diff))
		reasons = append(reasons, "counter sum differs from completed Updates (mutual exclusion broken)")
	}
	if free, capacity := r.srv.PoolStats(); free != capacity {
		failed += uint64(capacity - free)
		reasons = append(reasons, "server slot pool leaked slots")
	}
	if r.tr != nil {
		if free, capacity := r.tr.pool.Free(), r.tr.pool.Capacity(); free != capacity {
			failed += uint64(capacity - free)
			reasons = append(reasons, "traced slot pool leaked slots")
		}
	}
	return failed, reasons
}

// attempts returns requests attempted and those shed.
func (r *runner) attempts() (tries, shed uint64) {
	for _, wk := range r.workers {
		tries += wk.tries
		shed += wk.shed
	}
	return tries, shed
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// utilization is process CPU over the wall time of every processor.
func utilization(cpu, wall time.Duration) float64 {
	return cpu.Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
}
