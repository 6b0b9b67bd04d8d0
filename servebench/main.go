// Command servebench is the repository's serving benchmark: it drives a
// kvserver.Server in its default configuration with at most two worker
// goroutines from seeded request streams, checks every result, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics of a traced run) as one JSON object on its last output line.
//
// Each run interleaves closed-loop repetitions (capacity) with
// open-loop ones at the workload's fixed offered rate (latency from each
// request's due time), each with fresh worker goroutines. Beside each
// phase a benchmark-owned reference store times the host, and the
// end-to-end times are scaled to the reference speed the workload
// records (see ref.go). Every repetition's values, raw and scaled, are
// printed on a "rep" line; the JSON carries the mean of the two stack
// placements' medians (see stack.go). A failed
// correctness check makes the command exit 1. The workloads, their
// offered rates and the layer-to-end-to-end metric mapping live in
// workloads.json. From the repository root:
//
//	bash servebench/run.sh --workload hot-rmw --seed 1 --seconds 30 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"repro/internal/lockreg"
)

//go:embed workloads.json
var workloadsJSON []byte

// workload is one entry of workloads.json.
type workload struct {
	Name    string  `json:"name"`
	Keys    int     `json:"keys"`
	Theta   float64 `json:"theta"` // zipf exponent; 0 is uniform
	Shards  int     `json:"shards"`
	GetFrac float64 `json:"get_frac"`
	// BudgetNs > 0 sends every request through GetWithin/PutWithin with
	// this budget; 0 uses Get/Update.
	BudgetNs int64 `json:"budget_ns"`
	// OpenRate is the open-loop offered rate in ops/s: fixed here, never
	// derived at run time, so two commits see the same load.
	OpenRate float64 `json:"open_rate_ops_s"`
	// Setups is how many times a run builds and prefills the server to
	// time set-up.
	Setups int `json:"setups"`
	// The reference store's closed-loop speed, open-loop median latency
	// at OpenRate and build time (ref.go) that the end-to-end metrics
	// are scaled to: their medians on the host the benchmark was
	// defined on.
	RefOpsS   float64 `json:"ref_ops_s"`
	RefP50Us  float64 `json:"ref_p50_us"`
	RefBuildS float64 `json:"ref_build_s"`
}

func loadWorkloads() ([]workload, error) {
	var spec struct {
		Workloads []workload `json:"workloads"`
	}
	if err := json.Unmarshal(workloadsJSON, &spec); err != nil {
		return nil, fmt.Errorf("parse workloads.json: %w", err)
	}
	return spec.Workloads, nil
}

// reps is the number of repetitions a run is split into; they alternate
// between the two stack placements of stack.go. Each repetition runs the
// server's closed loop, the reference store's (ref.go), the server's
// open loop and the reference store's, in shares 2:1:2:1 of its time.
const reps = 20

// warmup is run before the measured phases, so caches fill and the
// lock's queue nodes are touched.
const warmup = 300 * time.Millisecond

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name from workloads.json")
	seed := fs.Uint64("seed", 1, "seed of the request streams")
	seconds := fs.Float64("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	all, err := loadWorkloads()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	i := slices.IndexFunc(all, func(w workload) bool { return w.Name == *name })
	if i < 0 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(stderr, "servebench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", names(all))
		return 2
	}
	w := all[i]
	workers := min(2, runtime.GOMAXPROCS(0))
	streams := buildStreams(w, *seed, workers, streamLen)
	d := time.Duration(*seconds * float64(time.Second))
	if *trace == 1 {
		return report(stdout, stderr, traced(w, streams, d, stdout))
	}
	return report(stdout, stderr, measure(w, nil, streams, d, stdout))
}

// report prints res as the last output line and returns the exit code:
// non-zero when a correctness check failed.
func report(stdout, stderr io.Writer, res result) int {
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "servebench: encode result:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

func names(all []workload) []string {
	var out []string
	for _, w := range all {
		out = append(out, w.Name)
	}
	return out
}

// measure is the untraced run: set-up and memory, then the closed and
// open loops on the server (locks nil: the default configuration).
func measure(w workload, locks []lockreg.Spec, streams [][]uint64, d time.Duration, stdout io.Writer) result {
	// The measured server is the first one built, on a fresh heap, so its
	// memory layout does not depend on how earlier servers were freed.
	r := newRunner(w, streams)
	h0 := liveHeap()
	setups := []float64{r.setup(locks).Seconds()}
	heapPerKey := float64(liveHeap()-h0) / float64(w.Keys)
	debug.FreeOSMemory()

	ref := newRefStore(w, len(r.workers))
	for _, split := range []bool{false, true} {
		r.closed(warmup/2, split)
		r.reference(ref, warmup/4, split)
	}
	// Each repetition runs the server's closed loop, the reference's,
	// the server's open loop and the reference's, so each of the
	// server's phases is scaled by the reference run in the same regime
	// and seconds (ref.go).
	serverD, refD := d*2/6/reps, d/6/reps
	var tput, rawTput, refs, refP50s, gp50, gp90, wp50, wp90 []float64
	for i := range reps {
		split := i%2 == 1
		t, cpu := r.closed(serverD, split)
		rs := r.reference(ref, refD, split)
		tf := w.RefOpsS / rs // above 1 when the host runs slow
		tput, rawTput, refs = append(tput, t*tf), append(rawTput, t), append(refs, rs)
		rep(stdout, "closed", i, map[string]any{
			"throughput_ops_s": t * tf, "throughput_ops_s.raw": t, "ref_ops_s": rs, "loadgen.cpu_util": cpu,
		})

		late, cpu := r.open(serverD, w.OpenRate, split, nil)
		g, wr := r.latencies(false), r.latencies(true)
		r.open(refD, w.OpenRate, split, ref)
		rl := slices.Concat(r.latencies(false), r.latencies(true))
		slices.Sort(rl)
		rp50 := us(percentile(rl, 0.5))
		lf := w.RefP50Us / rp50 // below 1 when the host runs slow
		refP50s = append(refP50s, rp50)
		gp50, gp90 = append(gp50, us(percentile(g, 0.5))*lf), append(gp90, us(percentile(g, 0.9))*lf)
		wp50, wp90 = append(wp50, us(percentile(wr, 0.5))*lf), append(wp90, us(percentile(wr, 0.9))*lf)
		rep(stdout, "open", i, map[string]any{
			"get_p50_us": gp50[i], "get_p90_us": gp90[i], "get_samples": len(g),
			"write_p50_us": wp50[i], "write_p90_us": wp90[i], "write_samples": len(wr),
			"get_p50_us.raw": us(percentile(g, 0.5)), "get_p90_us.raw": us(percentile(g, 0.9)), "get_p99_us.raw": us(percentile(g, 0.99)),
			"write_p50_us.raw": us(percentile(wr, 0.5)), "write_p90_us.raw": us(percentile(wr, 0.9)), "write_p99_us.raw": us(percentile(wr, 0.99)),
			"ref_p50_us": rp50, "loadgen.late_frac": late, "loadgen.cpu_util": cpu,
		})
	}
	modes(stdout, "throughput_ops_s", tput)
	modes(stdout, "throughput_ops_s.raw", rawTput)
	modes(stdout, "ref_ops_s", refs)
	modes(stdout, "ref_p50_us", refP50s)
	modes(stdout, "get_p50_us", gp50)
	modes(stdout, "write_p90_us", wp90)

	failed, reasons := r.verify()
	tries, shed := r.attempts()
	for _, why := range reasons {
		fmt.Fprintln(stdout, "check failed:", why)
	}

	// Further set-ups only time set-up: each builds a server and drops
	// it, then builds the reference store and drops it, whose time
	// scales set-up. Returning freed memory to the OS first makes each
	// start from the state the first one did.
	r.srv = nil
	var builds []float64
	for len(setups) < max(w.Setups, 1) {
		debug.FreeOSMemory()
		setups = append(setups, newRunner(w, streams).setup(locks).Seconds())
		debug.FreeOSMemory()
		t0 := time.Now()
		newRefStore(w, len(r.workers))
		builds = append(builds, time.Since(t0).Seconds())
	}
	setup := median(setups)
	if len(builds) > 0 {
		setup *= w.RefBuildS / median(builds)
	}
	rep(stdout, "setup", 0, map[string]any{
		"setup_s": setup, "setup_s_each.raw": setups, "ref_build_s_each": builds, "heap_bytes_per_key": heapPerKey,
	})
	return result{
		Correct:   failed == 0,
		Attempted: tries,
		Failed:    failed,
		Metrics: map[string]metric{
			"throughput_ops_s":   {placed(tput), "ops/s"},
			"get_p50_us":         {placed(gp50), "us"},
			"get_p90_us":         {placed(gp90), "us"},
			"write_p50_us":       {placed(wp50), "us"},
			"write_p90_us":       {placed(wp90), "us"},
			"ok_frac":            {1 - float64(shed+failed)/float64(max(tries, 1)), "ratio"},
			"setup_s":            {setup, "s"},
			"heap_bytes_per_key": {heapPerKey, "B"},
		},
	}
}

// traced is the traced run: each repetition runs the untraced default
// server's closed loop, then the same closed loop and the open loop on a
// server whose shard locks are the timing shim over the default lock.
func traced(w workload, streams [][]uint64, d time.Duration, stdout io.Writer) result {
	plain := newRunner(w, streams)
	plain.setup(nil)
	tr := &tracer{}
	tserver := newRunner(w, streams)
	tserver.setup([]lockreg.Spec{tr.tracedSpec()})
	tserver.tr = tr
	tr.workers = tserver.workers
	for _, wk := range tserver.workers {
		wk.tr = newSpanLog()
	}
	debug.FreeOSMemory()
	for _, split := range []bool{false, true} {
		plain.closed(warmup/2, split)
		tserver.closed(warmup/2, split)
	}

	phase := d / 3 / reps
	var plainTput, tracedTput []float64
	var layers []tracedRep
	for i := range reps {
		split := i%2 == 1
		pt, _ := plain.closed(phase, split)
		st0, rt0 := tr.lockStats(), readRuntime()
		tt, cpu := tserver.closed(phase, split)
		lr := tserver.summarize(tr.lockStats().sub(st0), readRuntime().sub(rt0))
		lr.cpuUtil = cpu
		lr.late, _ = tserver.open(phase, w.OpenRate, split, nil)
		plainTput, tracedTput = append(plainTput, pt), append(tracedTput, tt)
		layers = append(layers, lr)
		vals := map[string]any{"throughput_ops_s.untraced": pt, "throughput_ops_s.traced": tt}
		for _, lm := range layerMetrics {
			vals[lm.name] = lm.get(lr)
		}
		rep(stdout, "traced", i, vals)
	}
	modes(stdout, "throughput_ops_s.untraced", plainTput)
	modes(stdout, "throughput_ops_s.traced", tracedTput)

	var failed uint64
	var attempted uint64
	for _, r := range []*runner{plain, tserver} {
		f, reasons := r.verify()
		for _, why := range reasons {
			fmt.Fprintln(stdout, "check failed:", why)
		}
		tries, _ := r.attempts()
		failed += f
		attempted += tries
	}
	m := map[string]metric{}
	for _, lm := range layerMetrics {
		var vals []float64
		for _, lr := range layers {
			vals = append(vals, lm.get(lr))
		}
		m[lm.name] = metric{placed(vals), lm.unit}
	}
	m["trace.overhead_frac"] = metric{1 - placed(tracedTput)/placed(plainTput), "ratio"}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}
}

// layerMetrics lists every per-layer metric a traced repetition yields.
var layerMetrics = []struct {
	name, unit string
	get        func(tracedRep) float64
}{
	{"gonative.lock_wait_ns.p50", "ns", func(r tracedRep) float64 { return r.waitP50 }},
	{"gonative.lock_wait_ns.p99", "ns", func(r tracedRep) float64 { return r.waitP99 }},
	{"gonative.unlock_ns.p50", "ns", func(r tracedRep) float64 { return r.unlockP50 }},
	{"gonative.contended_frac", "ratio", func(r tracedRep) float64 { return r.contended }},
	{"gonative.timeout_fail_frac", "ratio", func(r tracedRep) float64 { return r.timeoutFail }},
	{"core.remote_handover_frac", "ratio", func(r tracedRep) float64 { return r.remote }},
	{"core.secondary_moves_per_kop", "1/kop", func(r tracedRep) float64 { return r.movesPerK }},
	{"core.flushes_per_kop", "1/kop", func(r tracedRep) float64 { return r.flushesK }},
	{"minikv.hold_ns.p50", "ns", func(r tracedRep) float64 { return r.holdP50 }},
	{"minikv.hold_ns.p99", "ns", func(r tracedRep) float64 { return r.holdP99 }},
	{"kvserver.self_ns.p50", "ns", func(r tracedRep) float64 { return r.selfP50 }},
	{"runtime.alloc_bytes_per_op", "B/op", func(r tracedRep) float64 { return r.allocPerOp }},
	{"runtime.gc_cpu_frac", "ratio", func(r tracedRep) float64 { return r.gcFrac }},
	{"loadgen.late_frac", "ratio", func(r tracedRep) float64 { return r.late }},
	{"loadgen.cpu_util", "ratio", func(r tracedRep) float64 { return r.cpuUtil }},
}

// rep prints one repetition's values on a line of its own.
func rep(stdout io.Writer, phase string, i int, vals map[string]any) {
	vals["phase"], vals["rep"] = phase, i
	b, _ := json.Marshal(vals) // strings, numbers and slices of them always marshal
	fmt.Fprintf(stdout, "rep %s\n", b)
}

// byPlacement splits per-repetition values into the even (same
// offset) and odd (1 KiB offset) repetitions' medians.
func byPlacement(vals []float64) (same, offset float64) {
	var a, b []float64
	for i, v := range vals {
		if i%2 == 0 {
			a = append(a, v)
		} else {
			b = append(b, v)
		}
	}
	return median(a), median(b)
}

// placed is the headline value: the mean of the two placements' medians.
func placed(vals []float64) float64 {
	a, b := byPlacement(vals)
	return (a + b) / 2
}

// modes prints each placement's median and the repetitions lying more
// than 30% from their placement's median, so a bimodal run shows rather
// than being hidden by the medians.
func modes(stdout io.Writer, name string, vals []float64) {
	same, off := byPlacement(vals)
	var far []int
	for i, v := range vals {
		m := same
		if i%2 == 1 {
			m = off
		}
		if v > 1.3*m || v < m/1.3 {
			far = append(far, i)
		}
	}
	fmt.Fprintf(stdout, "modes %s same_offset=%.4g offset_1KiB=%.4g ratio=%.3f outlying_reps=%v\n",
		name, same, off, same/off, far)
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func us(nsv uint32) float64 { return float64(nsv) / 1000 }

// liveHeap forces a collection and returns the bytes of live heap.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
