package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/locknames"
)

// maxRegressionRows bounds the rendered regression table: the full diff
// lives in the JSON, but on noisy hosts hundreds of matched benchmarks
// can clear the threshold and a table that long buries the real movers.
const maxRegressionRows = 25

// topMovers caps the table at n rows, keeping every regression before
// any improvement (this is a regression diff: a slowdown must never be
// crowded out by however large the speedups are). Input and output are
// sorted worst-regression-first; when regressions alone exceed n, the
// worst n are kept, otherwise the remaining slots go to the largest
// improvements.
func topMovers(regs []Regression, n int) []Regression {
	if len(regs) <= n {
		return regs
	}
	neg := sort.Search(len(regs), func(i int) bool { return regs[i].DeltaPct >= 0 })
	if neg >= n {
		return regs[:n]
	}
	out := append([]Regression(nil), regs[:neg]...)
	return append(out, regs[len(regs)-(n-neg):]...)
}

// WorkloadInfo is the renderer-facing description of one workload:
// where it comes from in the paper and what it exercises. The caller
// (cmd/benchjson) supplies these from the workload registry so the
// harness stays independent of it.
type WorkloadInfo struct {
	Description string
	PaperRef    string
}

// WriteMarkdown renders a report as the generated BENCHMARKS.md: an
// uncontended-latency table, one per-workload contended table with
// per-lock thread-count curves and latency percentiles, and the
// regression diff against the previous checked-in report. The output is
// a pure function of the report (plus the static workload info), so CI
// can regenerate it from the checked-in JSON and diff.
func WriteMarkdown(w io.Writer, r Report, info map[string]WorkloadInfo) error {
	var b strings.Builder

	b.WriteString("# Benchmarks\n\n")
	b.WriteString("> Generated by `go run ./cmd/benchjson -md` from `BENCH_locks.json` — do not edit by hand.\n")
	b.WriteString("> Regenerate with `go run ./cmd/benchjson -md` (full measurement) or\n")
	b.WriteString("> `go run ./cmd/benchjson -render -md` (re-render from the checked-in JSON).\n\n")
	mode := "full sweep"
	if r.Short {
		mode = "short smoke sweep (noisier numbers)"
	}
	fmt.Fprintf(&b, "Schema `%s` · %s · `GOMAXPROCS=%d` · %s.\n\n", r.Schema, r.GoVersion, r.GOMAXPROCS, mode)
	b.WriteString("Column meanings (ops/µs, rel stddev, fairness, percentiles) are explained in\n")
	b.WriteString("the top-level README's \"Reading the benchmarks\" section. Wall-clock numbers\n")
	b.WriteString("are only comparable within similar host shapes.\n")

	// Split results: uncontended (NsPerOp set, one thread) vs contended,
	// grouping contended results by workload in first-appearance order.
	// The "go-native" pseudo-workload is the uncontended sweep repeated
	// through the goroutine-native adapter; it feeds the adapter-overhead
	// table next to the raw uncontended numbers rather than a contended
	// section.
	var uncontended []Result
	native := map[string]Result{}
	byWorkload := map[string][]Result{}
	var workloads []string
	for _, res := range r.Results {
		if res.Workload == "uncontended" {
			uncontended = append(uncontended, res)
			continue
		}
		if res.Workload == "go-native" {
			native[res.Lock] = res
			continue
		}
		wl := res.Workload
		if _, seen := byWorkload[wl]; !seen {
			workloads = append(workloads, wl)
		}
		byWorkload[wl] = append(byWorkload[wl], res)
	}

	if len(uncontended) > 0 {
		b.WriteString("\n## Uncontended acquire/release latency\n\n")
		b.WriteString("Single-thread lock/unlock pairs, best batch within a wall-clock budget —\n")
		b.WriteString("the single-thread row of the paper's Figure 6.\n\n")
		b.WriteString("| lock | ns/op | ops/µs |\n|---|---:|---:|\n")
		for _, res := range uncontended {
			fmt.Fprintf(&b, "| %s | %.1f | %.3f |\n", res.Lock, res.NsPerOp, res.Throughput)
		}
	}

	if len(native) > 0 {
		b.WriteString("\n## Adapter overhead (go-native vs raw *Thread)\n\n")
		b.WriteString("The same single-thread lock/unlock pairs driven through the\n")
		b.WriteString("goroutine-native adapter (`repro.NewMutex`: claim a thread slot, run\n")
		b.WriteString("the real acquisition, release the slot) against the raw explicit-Thread\n")
		b.WriteString("call path. The ratio is the full price of `sync.Mutex`-style drop-in\n")
		b.WriteString("usage; `std`/`std-rw` build their native form directly, so their two\n")
		b.WriteString("columns bracket the adapter's floor.\n\n")
		b.WriteString("| lock | raw ns/op | go-native ns/op | native/raw |\n|---|---:|---:|---:|\n")
		for _, res := range uncontended {
			nat, ok := native[res.Lock]
			if !ok {
				continue
			}
			ratio := "—"
			if res.NsPerOp > 0 {
				ratio = fmt.Sprintf("%.2f", nat.NsPerOp/res.NsPerOp)
			}
			fmt.Fprintf(&b, "| %s | %.1f | %.1f | %s |\n", res.Lock, res.NsPerOp, nat.NsPerOp, ratio)
		}
	}

	if len(workloads) > 0 {
		b.WriteString("\n## Contended sweeps\n")
		for _, wl := range workloads {
			fmt.Fprintf(&b, "\n### Workload `%s`\n\n", wl)
			if wi, ok := info[wl]; ok {
				fmt.Fprintf(&b, "%s\n", wi.Description)
				if wi.PaperRef != "" {
					fmt.Fprintf(&b, "Paper cross-reference: %s.\n", wi.PaperRef)
				}
				b.WriteString("\n")
			}
			b.WriteString("| lock | threads | ops/µs | rel stddev | fairness | p50 (ns) | p95 (ns) | p99 (ns) |\n")
			b.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|\n")
			for _, res := range byWorkload[wl] {
				p50, p95, p99 := "—", "—", "—"
				if res.LatencySamples > 0 {
					p50 = fmt.Sprintf("%.0f", res.P50Ns)
					p95 = fmt.Sprintf("%.0f", res.P95Ns)
					p99 = fmt.Sprintf("%.0f", res.P99Ns)
				}
				fmt.Fprintf(&b, "| %s | %d | %.3f | %.1f%% | %.3f | %s | %s | %s |\n",
					res.Lock, res.Threads, res.Throughput, res.RelStdDev*100, res.Fairness, p50, p95, p99)
			}
		}
	}

	writeCrossover(&b, r, byWorkload, workloads)
	writeCollapse(&b, byWorkload["collapse"])

	b.WriteString("\n## Regression diff vs previous checked-in report\n\n")
	if len(r.Regressions) == 0 {
		b.WriteString("No benchmark matched by name moved by more than the reporting threshold\n")
		b.WriteString("(or no previous report was available when this one was measured).\n")
	} else {
		b.WriteString("Benchmarks whose throughput moved by more than the reporting threshold\n")
		b.WriteString("against the previous checked-in `BENCH_locks.json`, worst regression first.\n")
		b.WriteString("On a noisy host treat even large contended movements as noise; a\n")
		b.WriteString("trajectory of reports is the signal.\n\n")
		regs := topMovers(r.Regressions, maxRegressionRows)
		b.WriteString("| benchmark | old ops/µs | new ops/µs | Δ |\n|---|---:|---:|---:|\n")
		for _, reg := range regs {
			fmt.Fprintf(&b, "| %s | %.3f | %.3f | %+.1f%% |\n",
				reg.Name, reg.OldOpsPerUs, reg.NewOpsPerUs, reg.DeltaPct)
		}
		if dropped := len(r.Regressions) - len(regs); dropped > 0 {
			fmt.Fprintf(&b, "\nShowing the %d largest movements of %d total; the full list is in\n"+
				"`BENCH_locks.json`'s `regressions` array.\n", len(regs), len(r.Regressions))
		}
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// writeCollapse renders the saturated-collapse retention table from the
// "collapse" workload's results: for every swept lock, its peak
// throughput (the shallowest rung it was measured at — one thread per
// socket in the default sweep) against each deeper rung, with the
// retention ratio deep/peak. Flat locks hold near 1.00 as the rungs
// deepen; collapsing locks fall. Each lock is read against its own
// peak, so the table compares collapse behaviour, not absolute speed.
// Nothing is rendered when the report has no collapse sweep (pre-CR
// JSON files, or -collapse "").
func writeCollapse(b *strings.Builder, results []Result) {
	peakT := map[string]int{}
	peak := map[string]float64{}
	var order []string
	for _, res := range results {
		if res.Lock == "" {
			continue
		}
		if t, seen := peakT[res.Lock]; !seen || res.Threads < t {
			if _, seen := peakT[res.Lock]; !seen {
				order = append(order, res.Lock)
			}
			peakT[res.Lock] = res.Threads
			peak[res.Lock] = res.Throughput
		}
	}
	type row struct {
		lock    string
		threads int
		tput    float64
	}
	var rows []row
	for _, res := range results {
		if res.Lock == "" || res.Threads <= peakT[res.Lock] {
			continue
		}
		rows = append(rows, row{res.Lock, res.Threads, res.Throughput})
	}
	if len(rows) == 0 {
		return
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].lock != rows[j].lock {
			return rows[i].lock < rows[j].lock
		}
		return rows[i].threads < rows[j].threads
	})
	b.WriteString("\n## Collapse (deep-oversubscription retention)\n\n")
	b.WriteString("The saturated-collapse workload's deep rungs against each lock's own\n")
	b.WriteString("peak (its shallowest measured rung). Retention near 1.00 means the lock\n")
	b.WriteString("held its peak throughput under oversubscription; well below 1.00 means\n")
	b.WriteString("it collapsed. The `-cr` locks gate admission to a socket-sized active\n")
	b.WriteString("set, which is what keeps their column flat.\n\n")
	b.WriteString("| lock | peak t | peak ops/µs | threads | ops/µs | retention |\n")
	b.WriteString("|---|---:|---:|---:|---:|---:|\n")
	for _, rw := range rows {
		ret := "—"
		if peak[rw.lock] > 0 {
			ret = fmt.Sprintf("%.2f", rw.tput/peak[rw.lock])
		}
		fmt.Fprintf(b, "| %s | %d | %.3f | %d | %.3f | %s |\n",
			rw.lock, peakT[rw.lock], peak[rw.lock], rw.threads, rw.tput, ret)
	}
}

// writeCrossover renders the spin-collapse vs. park comparison: for
// every lock with a measured "*-park" twin, the contended rungs beyond
// GOMAXPROCS (where waiters outnumber processors and spinning steals
// the holder's quanta) side by side. A park/spin ratio above 1 means
// the parked variant won the oversubscribed rung. Nothing is rendered
// when the report has no oversubscribed rungs or no park variants
// (e.g. pre-park JSON files).
func writeCrossover(b *strings.Builder, r Report, byWorkload map[string][]Result, workloads []string) {
	type pair struct{ spin, park float64 }
	type key struct {
		wl, lock string
		threads  int
	}
	pairs := map[key]*pair{}
	var order []key
	at := func(k key) *pair {
		if p, ok := pairs[k]; ok {
			return p
		}
		p := &pair{}
		pairs[k] = p
		order = append(order, k)
		return p
	}
	for _, wl := range workloads {
		for _, res := range byWorkload[wl] {
			if res.Threads <= r.GOMAXPROCS || res.Lock == "" {
				continue
			}
			if base, ok := strings.CutSuffix(res.Lock, locknames.ParkSuffix); ok {
				at(key{wl, base, res.Threads}).park = res.Throughput
			} else {
				at(key{wl, res.Lock, res.Threads}).spin = res.Throughput
			}
		}
	}
	var rows []key
	for _, k := range order {
		if p := pairs[k]; p.spin > 0 && p.park > 0 {
			rows = append(rows, k)
		}
	}
	if len(rows) == 0 {
		return
	}
	sort.Slice(rows, func(i, j int) bool {
		a, c := rows[i], rows[j]
		if a.wl != c.wl {
			return a.wl < c.wl
		}
		if a.lock != c.lock {
			return a.lock < c.lock
		}
		return a.threads < c.threads
	})
	fmt.Fprintf(b, "\n## Oversubscription crossover (threads > GOMAXPROCS=%d)\n\n", r.GOMAXPROCS)
	b.WriteString("Spinning waiters burn the scheduler quanta the lock holder needs once\n")
	b.WriteString("threads outnumber processors; spin-then-park waiters block instead. Each\n")
	b.WriteString("row compares a lock and its `-park` twin on an oversubscribed rung —\n")
	b.WriteString("ratios above 1.00 mean parking won.\n\n")
	b.WriteString("| workload | lock | threads | spin ops/µs | park ops/µs | park/spin |\n")
	b.WriteString("|---|---|---:|---:|---:|---:|\n")
	for _, k := range rows {
		p := pairs[k]
		fmt.Fprintf(b, "| %s | %s | %d | %.3f | %.3f | %.2f |\n",
			k.wl, k.lock, k.threads, p.spin, p.park, p.park/p.spin)
	}
}
