package harness

import (
	"strings"
	"testing"
)

func TestReadReportV2RoundTrip(t *testing.T) {
	in := NewReport(false, []Result{
		{Name: "contended/spin/t4/CNA", Lock: "CNA", Workload: "spin", Threads: 4,
			Throughput: 2.4, Fairness: 0.5, TotalOps: 1000,
			P50Ns: 64, P95Ns: 128, P99Ns: 512, LatencySamples: 99},
	})
	in.Regressions = []Regression{{Name: "contended/spin/t4/CNA", OldOpsPerUs: 3, NewOpsPerUs: 2.4, DeltaPct: -20}}
	var buf strings.Builder
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"p99_ns"`) || !strings.Contains(buf.String(), `"regressions"`) {
		t.Fatalf("v2 JSON missing schema keys:\n%s", buf.String())
	}
	out, err := ReadReport(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema != ReportSchema {
		t.Fatalf("schema = %q, want %q", out.Schema, ReportSchema)
	}
	if out.Results[0].P99Ns != 512 || out.Results[0].Workload != "spin" {
		t.Fatalf("v2 fields mangled: %+v", out.Results[0])
	}
	if len(out.Regressions) != 1 || out.Regressions[0].DeltaPct != -20 {
		t.Fatalf("regressions mangled: %+v", out.Regressions)
	}
}

func TestReadReportRejectsUnknownSchema(t *testing.T) {
	for _, schema := range []string{"repro-bench/v9", "repro-bench/v1"} {
		_, err := ReadReport(strings.NewReader(`{"schema": "` + schema + `", "results": []}`))
		if err == nil || !strings.Contains(err.Error(), schema) {
			t.Fatalf("unsupported schema %s accepted: %v", schema, err)
		}
	}
	if _, err := ReadReport(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestCompareResults(t *testing.T) {
	old := []Result{
		{Name: "a", Throughput: 10},
		{Name: "b", Throughput: 10},
		{Name: "c", Throughput: 10},
		{Name: "gone", Throughput: 5},
	}
	new := []Result{
		{Name: "a", Throughput: 5},    // -50%: regression
		{Name: "b", Throughput: 10.5}, // +5%: below threshold
		{Name: "c", Throughput: 15},   // +50%: improvement
		{Name: "new", Throughput: 7},  // unmatched
	}
	regs := CompareResults(old, new, 0.10)
	if len(regs) != 2 {
		t.Fatalf("regressions = %+v, want 2 entries", regs)
	}
	// Worst regression first.
	if regs[0].Name != "a" || regs[0].DeltaPct != -50 {
		t.Fatalf("first entry = %+v", regs[0])
	}
	if regs[1].Name != "c" || regs[1].DeltaPct != 50 {
		t.Fatalf("second entry = %+v", regs[1])
	}
	if got := CompareResults(nil, new, 0.10); got != nil {
		t.Fatalf("no-baseline compare = %+v, want nil", got)
	}
}
