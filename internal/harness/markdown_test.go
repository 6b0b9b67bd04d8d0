package harness

import (
	"sort"
	"strings"
	"testing"
)

func testReport() Report {
	rep := NewReport(false, []Result{
		{Name: "uncontended/MCS", Lock: "MCS", Workload: "uncontended", Threads: 1,
			NsPerOp: 23.1, Throughput: 43.3, Fairness: 0.5},
		{Name: "contended/spin/t2/MCS", Lock: "MCS", Workload: "spin", Threads: 2,
			Throughput: 12.5, RelStdDev: 0.02, Fairness: 0.5,
			P50Ns: 64, P95Ns: 128, P99Ns: 512, LatencySamples: 1000},
		{Name: "contended/spin/t4/MCS", Lock: "MCS", Workload: "spin", Threads: 4,
			Throughput: 10.1, RelStdDev: 0.03, Fairness: 0.6,
			P50Ns: 72, P95Ns: 160, P99Ns: 640, LatencySamples: 1000},
		{Name: "contended/lockref/t2/MCS", Lock: "MCS", Workload: "lockref", Threads: 2,
			Throughput: 8.8, Fairness: 0.5}, // no latency samples: em-dash cells
		{Name: "go-native/MCS", Lock: "MCS", Workload: "go-native", Threads: 1,
			NsPerOp: 46.2, Throughput: 21.6, Fairness: 0.5},
	})
	rep.Regressions = []Regression{
		{Name: "contended/spin/t2/MCS", OldOpsPerUs: 20, NewOpsPerUs: 12.5, DeltaPct: -37.5},
	}
	return rep
}

func TestWriteMarkdown(t *testing.T) {
	var b strings.Builder
	info := map[string]WorkloadInfo{
		"spin":    {Description: "shared-counter spin", PaperRef: "Section 7.1.1"},
		"lockref": {Description: "dentry refcounting", PaperRef: "Table 1"},
	}
	if err := WriteMarkdown(&b, testReport(), info); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# Benchmarks",
		"repro-bench/v2",
		"## Uncontended acquire/release latency",
		"| MCS | 23.1 | 43.300 |",
		"## Adapter overhead (go-native vs raw *Thread)",
		"| MCS | 23.1 | 46.2 | 2.00 |",
		"### Workload `spin`",
		"shared-counter spin",
		"Section 7.1.1",
		"p50 (ns)",
		"| MCS | 2 | 12.500 | 2.0% | 0.500 | 64 | 128 | 512 |",
		"| MCS | 4 | 10.100 | 3.0% | 0.600 | 72 | 160 | 640 |",
		"### Workload `lockref`",
		"| MCS | 2 | 8.800 | 0.0% | 0.500 | — | — | — |",
		"## Regression diff vs previous checked-in report",
		"| contended/spin/t2/MCS | 20.000 | 12.500 | -37.5% |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestWriteMarkdownNoRegressions(t *testing.T) {
	rep := testReport()
	rep.Regressions = nil
	rep.Short = true
	var b strings.Builder
	if err := WriteMarkdown(&b, rep, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "short smoke sweep") {
		t.Error("short mode not flagged")
	}
	if !strings.Contains(out, "No benchmark matched by name") {
		t.Error("empty regression section missing placeholder")
	}
	// Unknown workloads (nil info) still render their tables.
	if !strings.Contains(out, "### Workload `spin`") {
		t.Error("workload section missing without info map")
	}
}

func TestWriteMarkdownCapsRegressionTable(t *testing.T) {
	rep := testReport()
	rep.Regressions = nil
	for i := 0; i < 40; i++ {
		rep.Regressions = append(rep.Regressions, Regression{
			Name: "bench" + strings.Repeat("x", i%3), OldOpsPerUs: 10, NewOpsPerUs: 10 + float64(i),
			DeltaPct: float64(i) * 10,
		})
	}
	var b strings.Builder
	if err := WriteMarkdown(&b, rep, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Showing the 25 largest movements of 40 total") {
		t.Errorf("cap note missing:\n%s", out)
	}
	if got := strings.Count(out, "| 10.000 |"); got != 25 {
		t.Errorf("rendered %d regression rows, want 25", got)
	}
	// The largest mover must survive the cap, the smallest must not.
	if !strings.Contains(out, "+390.0%") {
		t.Error("largest mover dropped by the cap")
	}
	if strings.Contains(out, "| +0.0% |") {
		t.Error("smallest mover survived the cap")
	}
}

func TestTopMoversKeepsRegressionsBeforeImprovements(t *testing.T) {
	// 30 big improvements must not crowd small regressions out of a
	// table titled "Regression diff".
	var regs []Regression
	for i := 0; i < 5; i++ {
		regs = append(regs, Regression{Name: "reg", DeltaPct: -12 - float64(i)})
	}
	for i := 0; i < 30; i++ {
		regs = append(regs, Regression{Name: "imp", DeltaPct: 50 + float64(i)})
	}
	sort.SliceStable(regs, func(i, j int) bool { return regs[i].DeltaPct < regs[j].DeltaPct })
	kept := topMovers(regs, 25)
	negs := 0
	for _, r := range kept {
		if r.DeltaPct < 0 {
			negs++
		}
	}
	if len(kept) != 25 || negs != 5 {
		t.Fatalf("kept %d rows with %d regressions, want 25 rows keeping all 5 regressions", len(kept), negs)
	}
	if kept[0].DeltaPct >= 0 {
		t.Fatal("worst regression not first")
	}
	// When regressions alone exceed the cap, the worst n survive.
	many := make([]Regression, 40)
	for i := range many {
		many[i].DeltaPct = -100 + float64(i)
	}
	kept = topMovers(many, 25)
	if len(kept) != 25 || kept[0].DeltaPct != -100 || kept[24].DeltaPct != -76 {
		t.Fatalf("regression-only cap wrong: %+v", kept[:2])
	}
}
