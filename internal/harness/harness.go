// Package harness runs fixed-duration, real-concurrency benchmarks over
// the real lock implementations, the way the paper's user-space
// experiments run: spawn N workers, let them hammer a workload for a
// measured interval, count per-thread operations, repeat and average.
//
// On this reproduction's host the absolute numbers say little about NUMA
// (virtual topology, single core); the real-mode harness exists to
// exercise the production lock code end to end, to measure fairness and
// handover-locality statistics of the real implementations, and to serve
// as the perf-regression harness for the library itself. The paper's
// figures are regenerated in virtual time by internal/simbench.
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/locks"
	"repro/internal/numa"
	"repro/internal/stats"
)

// Workload is a factory for per-run benchmark state: it returns the
// per-thread operation function. Called once per run so repetitions are
// independent.
type Workload func(threads int) func(t *locks.Thread, op int)

// NativeWorkload is a Workload whose operations need no *locks.Thread —
// the go-native benchmark mode, where workers drive a goroutine-native
// adapter (repro.NewMutex) exactly the way plain Go code would drive a
// sync.Mutex. Threaded converts it for Run; the harness-made Thread is
// simply ignored, so the measured loop is identical apart from the
// workload's own locking style.
type NativeWorkload func(threads int) func(op int)

// Threaded adapts the native workload to the harness's Workload shape.
func (w NativeWorkload) Threaded() Workload {
	return func(threads int) func(*locks.Thread, int) {
		op := w(threads)
		return func(_ *locks.Thread, i int) { op(i) }
	}
}

// Config describes a benchmark run.
type Config struct {
	// Name labels the run in reports.
	Name string
	// Topo provides the virtual sockets workers are placed on.
	Topo numa.Topology
	// Placement selects the layout (default Spread, like the paper's
	// unpinned threads on an otherwise idle machine).
	Placement numa.Policy
	// Threads is the worker count.
	Threads int
	// Duration is the measured interval per run.
	Duration time.Duration
	// Warmup runs (untimed) before measurement begins.
	Warmup time.Duration
	// Repeats averages this many runs (the paper uses 5).
	Repeats int
	// SamplePeriod, when positive, records per-op latency for one in
	// every SamplePeriod operations (rounded up to a power of two) into a
	// fixed-bucket Histogram, populating the report's p50/p95/p99
	// columns. Zero disables latency sampling, leaving the measured loop
	// identical to the pre-v2 harness.
	SamplePeriod int
}

// Result is an averaged benchmark outcome. The JSON field names are the
// stable machine-readable schema consumed by the perf-regression
// pipeline (cmd/benchjson writes them, CI archives them); renaming one
// is a schema break.
type Result struct {
	Name     string `json:"name"`
	Lock     string `json:"lock,omitempty"`     // lock algorithm under test, when the sweep varies it
	Workload string `json:"workload,omitempty"` // workload name, when the sweep varies it
	// WaitPolicy is the lock's waiting policy ("spin", "spin-park",
	// "park"), so spin-vs-park curves can be grouped without parsing
	// lock names. Added within schema v2 as an optional field: the
	// tolerant reader leaves it empty (meaning "spin") on older v2
	// files.
	WaitPolicy string  `json:"wait_policy,omitempty"`
	Threads    int     `json:"threads"`
	Throughput float64 `json:"ops_per_us"`          // ops per microsecond, averaged over repeats
	NsPerOp    float64 `json:"ns_per_op,omitempty"` // wall-clock latency (uncontended sweeps)
	RelStdDev  float64 `json:"rel_stddev"`          // relative stddev across repeats
	Fairness   float64 `json:"fairness"`            // fairness factor of the last run
	TotalOps   uint64  `json:"total_ops"`           // ops of the last run

	// Per-op latency distribution, present when Config.SamplePeriod was
	// set: fixed-bucket histogram percentiles over all repeats, in
	// nanoseconds (each value is its bucket's upper bound).
	P50Ns          float64 `json:"p50_ns,omitempty"`
	P95Ns          float64 `json:"p95_ns,omitempty"`
	P99Ns          float64 `json:"p99_ns,omitempty"`
	LatencySamples uint64  `json:"latency_samples,omitempty"`

	// Serving-path fields, set by sweeps that model request serving
	// (internal/kvserver). Added within schema v2 as optional fields —
	// the tolerant reader leaves them zero on older files. OpClass
	// splits one run's results by operation kind ("get", "put");
	// SLOTargetNs is the per-op latency budget the run was held to and
	// SLOViolations counts the ops (of TotalOps) that blew it. A zero
	// SLOTargetNs means the run tracked no SLO.
	OpClass       string  `json:"op_class,omitempty"`
	SLOTargetNs   float64 `json:"slo_target_ns,omitempty"`
	SLOViolations uint64  `json:"slo_violations,omitempty"`
	// Shed counts requests abandoned at admission: their shard-lock
	// acquisition timed out (after any configured retries), so they
	// executed no operation and contribute to neither TotalOps nor the
	// latency percentiles. Distinct from SLOViolations, which counts
	// admitted requests that ran too slowly.
	Shed uint64 `json:"shed,omitempty"`
}

// Run executes the configured benchmark.
func Run(cfg Config, workload Workload) Result {
	if cfg.Repeats < 1 {
		cfg.Repeats = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 100 * time.Millisecond
	}
	place := numa.NewPlacement(cfg.Topo, cfg.Threads, cfg.Placement)

	// Latency sampling: one op in every (power-of-two) sampleMask+1 is
	// timed individually into a per-thread histogram. When sampling is
	// off the measured loop stays free of time.Now calls entirely;
	// SamplePeriod 1 means every op is timed (mask 0 then matches every
	// count), so the off switch is a separate flag, not the mask value.
	sampling := cfg.SamplePeriod > 0
	var sampleMask uint64
	if sampling {
		period := uint64(1)
		for period < uint64(cfg.SamplePeriod) {
			period <<= 1
		}
		sampleMask = period - 1
	}
	merged := &Histogram{}

	var throughputs []float64
	var lastOps []uint64
	for rep := 0; rep < cfg.Repeats; rep++ {
		op := workload(cfg.Threads)
		opsPerThread := make([]uint64, cfg.Threads)
		hists := make([]*Histogram, cfg.Threads)

		var started, stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < cfg.Threads; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := locks.NewThread(w, place.SocketOf(w))
				// Warmup phase: run ops but discard counts.
				n := 0
				for !started.Load() {
					op(th, n)
					n++
				}
				var count uint64
				if !sampling {
					for !stop.Load() {
						op(th, n)
						n++
						count++
					}
				} else {
					h := &Histogram{}
					for !stop.Load() {
						if count&sampleMask == 0 {
							t0 := time.Now()
							op(th, n)
							h.Record(time.Since(t0))
						} else {
							op(th, n)
						}
						n++
						count++
					}
					hists[w] = h
				}
				opsPerThread[w] = count
			}(w)
		}
		time.Sleep(cfg.Warmup)
		started.Store(true)
		start := time.Now()
		time.Sleep(cfg.Duration)
		stop.Store(true)
		elapsed := time.Since(start)
		wg.Wait()

		var total uint64
		for _, c := range opsPerThread {
			total += c
		}
		throughputs = append(throughputs, float64(total)/(float64(elapsed.Nanoseconds())/1000))
		lastOps = opsPerThread
		for _, h := range hists {
			merged.Merge(h)
		}
	}

	var total uint64
	for _, c := range lastOps {
		total += c
	}
	res := Result{
		Name:       cfg.Name,
		Threads:    cfg.Threads,
		Throughput: stats.Mean(throughputs),
		RelStdDev:  stats.RelStdDev(throughputs),
		Fairness:   stats.FairnessFactor(lastOps),
		TotalOps:   total,
	}
	if merged.Samples() > 0 {
		res.P50Ns = merged.Percentile(50)
		res.P95Ns = merged.Percentile(95)
		res.P99Ns = merged.Percentile(99)
		res.LatencySamples = merged.Samples()
	}
	return res
}

// Sweep runs the workload across thread counts and returns a series.
func Sweep(cfg Config, counts []int, workload Workload) []Result {
	out := make([]Result, 0, len(counts))
	for _, n := range counts {
		c := cfg
		c.Threads = n
		out = append(out, Run(c, workload))
	}
	return out
}

// Report is the machine-readable form of a benchmark sweep: the results
// plus enough host context to interpret a trajectory of checked-in
// reports over time. BENCH_locks.json at the repository root is one of
// these, regenerated by cmd/benchjson.
type Report struct {
	// Schema versions the JSON layout; bump on breaking changes.
	Schema string `json:"schema"`
	// GoVersion and GOMAXPROCS qualify the absolute numbers: wall-clock
	// results are only comparable within similar host shapes.
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Short marks reduced-duration smoke runs (CI) whose absolute
	// numbers are noisier than full sweeps.
	Short   bool     `json:"short"`
	Results []Result `json:"results"`
	// Regressions records how this report's throughputs moved against
	// the previous checked-in report (matched by result name). Stored in
	// the report so the generated BENCHMARKS.md stays a pure function of
	// the JSON.
	Regressions []Regression `json:"regressions,omitempty"`
}

// ReportSchema is the Report layout version: v2 added the workload
// field, per-op latency percentiles and the regression diff.
const ReportSchema = "repro-bench/v2"

// Regression is one benchmark's throughput movement between two reports.
type Regression struct {
	Name        string  `json:"name"`
	OldOpsPerUs float64 `json:"old_ops_per_us"`
	NewOpsPerUs float64 `json:"new_ops_per_us"`
	DeltaPct    float64 `json:"delta_pct"` // (new-old)/old * 100
}

// CompareResults matches results by name across two sweeps and returns
// the benchmarks whose throughput moved by at least minDelta (a
// fraction, e.g. 0.10 for 10%), worst regression first.
func CompareResults(old, new []Result, minDelta float64) []Regression {
	prev := make(map[string]float64, len(old))
	for _, r := range old {
		if r.Throughput > 0 {
			prev[r.Name] = r.Throughput
		}
	}
	var out []Regression
	for _, r := range new {
		was, ok := prev[r.Name]
		if !ok || r.Throughput <= 0 {
			continue
		}
		delta := (r.Throughput - was) / was
		if delta >= -minDelta && delta <= minDelta {
			continue
		}
		out = append(out, Regression{
			Name:        r.Name,
			OldOpsPerUs: was,
			NewOpsPerUs: r.Throughput,
			DeltaPct:    delta * 100,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DeltaPct < out[j].DeltaPct })
	return out
}

// ReadReport decodes a repro-bench report of the current schema.
func ReadReport(r io.Reader) (Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return Report{}, fmt.Errorf("harness: decoding report: %w", err)
	}
	if rep.Schema != ReportSchema {
		return Report{}, fmt.Errorf("harness: unsupported report schema %q (want %s)", rep.Schema, ReportSchema)
	}
	return rep, nil
}

// NewReport wraps results with the host context of the current process.
func NewReport(short bool, results []Result) Report {
	return Report{
		Schema:     ReportSchema,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Short:      short,
		Results:    results,
	}
}

// WriteJSON emits the report as indented JSON (stable field order, one
// trailing newline) so checked-in reports diff cleanly across runs.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// FormatResults renders a result table grouped by benchmark name.
func FormatResults(results []Result) string {
	byName := map[string][]Result{}
	var names []string
	for _, r := range results {
		if _, ok := byName[r.Name]; !ok {
			names = append(names, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	sort.Strings(names)
	withLatency, withShed := false, false
	for _, r := range results {
		if r.LatencySamples > 0 {
			withLatency = true
		}
		if r.Shed > 0 {
			withShed = true
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-30s %8s %14s %10s %10s", "benchmark", "threads", "ops/us", "relstddev", "fairness")
	if withLatency {
		fmt.Fprintf(&b, " %10s %10s", "p50(ns)", "p99(ns)")
	}
	if withShed {
		fmt.Fprintf(&b, " %10s", "shed")
	}
	b.WriteByte('\n')
	for _, name := range names {
		rs := byName[name]
		sort.Slice(rs, func(i, j int) bool { return rs[i].Threads < rs[j].Threads })
		for _, r := range rs {
			fmt.Fprintf(&b, "%-30s %8d %14.3f %9.1f%% %10.3f",
				r.Name, r.Threads, r.Throughput, r.RelStdDev*100, r.Fairness)
			if withLatency {
				if r.LatencySamples > 0 {
					fmt.Fprintf(&b, " %10.0f %10.0f", r.P50Ns, r.P99Ns)
				} else {
					fmt.Fprintf(&b, " %10s %10s", "-", "-")
				}
			}
			if withShed {
				fmt.Fprintf(&b, " %10d", r.Shed)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
