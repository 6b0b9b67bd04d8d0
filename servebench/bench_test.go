package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/lockreg"
	"repro/internal/locks"
)

func mustWorkload(t *testing.T, name string) workload {
	t.Helper()
	all, err := loadWorkloads()
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(all, func(w workload) bool { return w.Name == name })
	if i < 0 {
		t.Fatalf("workload %q missing from workloads.json", name)
	}
	return all[i]
}

// noLock excludes nothing: a shard "lock" under which concurrent
// read-modify-writes lose updates.
type noLock struct{}

func (noLock) Lock()                                 {}
func (noLock) TryLock() bool                         { return true }
func (noLock) Unlock()                               {}
func (noLock) Name() string                          { return "none" }
func (noLock) LockTimeout(time.Duration) bool        { return true }
func (noLock) LockContext(ctx context.Context) error { return nil }

var noLockSpec = lockreg.Spec{
	Name: "none",
	Native: func(lockreg.Env, ...lockreg.Option) locks.TimedNativeMutex {
		return noLock{}
	},
}

// TestBrokenLockFailsCounterCheck drives hot-rmw against a server whose
// shard lock does nothing: the counter check must catch the lost updates
// and the command must exit non-zero, while the default lock passes.
func TestBrokenLockFailsCounterCheck(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("updates are only lost when two workers run in parallel")
	}
	w := mustWorkload(t, "hot-rmw")
	streams := buildStreams(w, 1, 2, 1<<16)
	var out strings.Builder
	res := measure(w, []lockreg.Spec{noLockSpec}, streams, 1200*time.Millisecond, &out)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("broken lock passed the checks: %+v", res)
	}
	if !strings.Contains(out.String(), "counter sum") {
		t.Fatalf("the counter check did not fire:\n%s", out.String())
	}
	if code := report(io.Discard, io.Discard, res); code == 0 {
		t.Fatal("report exited 0 on a failed check")
	}
	res = measure(w, nil, streams, 600*time.Millisecond, io.Discard)
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("default server failed the checks: %+v", res)
	}
}

func TestStreamsDeterministic(t *testing.T) {
	for _, name := range []string{"hot-rmw", "cold-read", "hot-deadline"} {
		w := mustWorkload(t, name)
		a := buildStreams(w, 42, 2, 1<<14)
		b := buildStreams(w, 42, 2, 1<<14)
		c := buildStreams(w, 43, 2, 1<<14)
		for i := range a {
			if !slices.Equal(a[i], b[i]) {
				t.Fatalf("%s: seed 42 gave two different streams for worker %d", name, i)
			}
			if slices.Equal(a[i], c[i]) {
				t.Fatalf("%s: seeds 42 and 43 gave the same stream for worker %d", name, i)
			}
		}
		if slices.Equal(a[0], a[1]) {
			t.Fatalf("%s: both workers got the same stream", name)
		}
		writes := 0
		for _, req := range a[0] {
			if reqKey(req) >= uint64(w.Keys) {
				t.Fatalf("%s: key %d out of range", name, reqKey(req))
			}
			if isWrite(req) {
				writes++
			}
		}
		if got, want := float64(writes)/float64(len(a[0])), 1-w.GetFrac; math.Abs(got-want) > 0.02 {
			t.Errorf("%s: write fraction %.3f, want %.3f", name, got, want)
		}
	}
}

// TestZipfShape compares the sampled rank frequencies with the zipf
// probabilities, and the uniform draw with a flat histogram.
func TestZipfShape(t *testing.T) {
	const n, draws = 1 << 16, 2_000_000
	z := newRanker(n, 0.99)
	r := rng{s: 7}
	counts := make([]int, n)
	for range draws {
		counts[z.rank(&r)]++
	}
	zeta := 0.0
	for i := range n {
		zeta += zipfWeight(i, 0.99)
	}
	for i := range 8 {
		want := zipfWeight(i, 0.99) / zeta
		got := float64(counts[i]) / draws
		if math.Abs(got-want)/want > 0.03 {
			t.Errorf("rank %d: frequency %.5f, want %.5f (±3%%)", i, got, want)
		}
	}
	top, wantTop := 0, 0.0
	for i := range 1024 {
		top += counts[i]
		wantTop += zipfWeight(i, 0.99) / zeta
	}
	if got := float64(top) / draws; math.Abs(got-wantTop)/wantTop > 0.01 {
		t.Errorf("top 1024 ranks: mass %.4f, want %.4f (±1%%)", got, wantTop)
	}

	u := newRanker(n, 0)
	buckets := make([]int, 16)
	for range draws {
		buckets[u.rank(&r)*16/n]++
	}
	for i, c := range buckets {
		if got := float64(c) * 16 / draws; math.Abs(got-1) > 0.02 {
			t.Errorf("uniform bucket %d holds %.3f of its share", i, got)
		}
	}
}

// benchmarkJSON reads the metric names BENCHMARK.json declares.
func benchmarkJSON(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func metricNames(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// TestRunsReportDeclaredMetrics runs both modes briefly on hot-deadline
// (the workload with the most paths) and checks that each reports
// exactly the metrics BENCHMARK.json declares, passes its checks, and
// (traced) leaves the slot pool whole.
func TestRunsReportDeclaredMetrics(t *testing.T) {
	endToEnd, perLayer := benchmarkJSON(t)
	slices.Sort(endToEnd)
	slices.Sort(perLayer)
	w := mustWorkload(t, "hot-deadline")
	streams := buildStreams(w, 3, 2, 1<<16)

	res := measure(w, nil, streams, 600*time.Millisecond, io.Discard)
	if !res.Correct {
		t.Fatalf("untraced run failed its checks: %+v", res)
	}
	if got := metricNames(res.Metrics); !slices.Equal(got, endToEnd) {
		t.Errorf("untraced metrics %v, BENCHMARK.json declares %v", got, endToEnd)
	}
	res = traced(w, streams, 900*time.Millisecond, io.Discard)
	if !res.Correct {
		t.Fatalf("traced run failed its checks: %+v", res)
	}
	if got := metricNames(res.Metrics); !slices.Equal(got, perLayer) {
		t.Errorf("traced metrics %v, BENCHMARK.json declares %v", got, perLayer)
	}
}

// TestLayerMapNamesDeclaredMetrics keeps the layer-to-end-to-end map in
// workloads.json in step with the metrics BENCHMARK.json declares.
func TestLayerMapNamesDeclaredMetrics(t *testing.T) {
	endToEnd, perLayer := benchmarkJSON(t)
	var spec struct {
		Layers []struct {
			Metric string   `json:"metric"`
			Moves  []string `json:"moves"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(workloadsJSON, &spec); err != nil {
		t.Fatal(err)
	}
	mapped := map[string]bool{}
	for _, l := range spec.Layers {
		if !slices.Contains(perLayer, l.Metric) {
			t.Errorf("layer map names %q, not a per-layer metric", l.Metric)
		}
		mapped[l.Metric] = true
		for _, m := range l.Moves {
			if !slices.Contains(endToEnd, m) {
				t.Errorf("%s moves %q, not an end-to-end metric", l.Metric, m)
			}
		}
	}
	for _, m := range perLayer {
		if !mapped[m] {
			t.Errorf("per-layer metric %q missing from the layer map", m)
		}
	}
}

// TestReferenceStore checks the host-calibration store: every key is
// found, and its MCS locks keep two workers' increments of the hottest
// keys from being lost.
func TestReferenceStore(t *testing.T) {
	w := mustWorkload(t, "hot-rmw")
	s := newRefStore(w, 2)
	for k := range uint64(w.Keys) {
		if n := s.lists[k%s.shards].find(k); n == nil || n.key != k {
			t.Fatalf("key %d not found", k)
		}
	}
	const perWorker = 200_000
	done := make(chan struct{})
	for id := range 2 {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range uint64(perWorker) {
				s.do(id, writeBit|i%4)
			}
		}()
	}
	<-done
	<-done
	var sum uint64
	for k := range uint64(4) {
		sum += s.lists[k%s.shards].find(k).val
	}
	if sum != 2*perWorker {
		t.Fatalf("reference store counted %d increments, want %d", sum, 2*perWorker)
	}
}
