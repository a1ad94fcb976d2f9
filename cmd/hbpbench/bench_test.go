package main

import (
	"encoding/json"
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2}, [3]float64{3.5, 6, 8.5}},
		{[]float64{1, 3, 3, 7, 12}, [3]float64{2, 3, 9.5}},
	} {
		q1, q2, q3, err := quartiles(c.in)
		if err != nil {
			t.Fatal(err)
		}
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample should fail")
	}
	sp, err := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil || math.Abs(sp-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = %v, %v", sp, err)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if v, ok := percentile(xs, 90); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with exactly 10 beyond", v, ok)
	}
	if v, ok := percentile(xs, 50); v != 50 || !ok {
		t.Errorf("p50 of 1..100 = %v, %v", v, ok)
	}
	if _, ok := percentile(xs[:99], 90); ok {
		t.Error("p90 of 99 samples has only 9 beyond; want ok=false")
	}
	if v, ok := percentile(xs, 99); v != 99 || ok {
		t.Errorf("p99 of 100 = %v, %v; want 99 and ok=false", v, ok)
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestSplitPhases(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	stamps := []time.Time{at(300), at(310), at(340), at(400)}
	p, err := splitPhases(t0, stamps, 5*time.Millisecond, at(450))
	if err != nil {
		t.Fatal(err)
	}
	if p.Setup != 300*time.Millisecond || p.Sim != 95*time.Millisecond || p.Teardown != 50*time.Millisecond {
		t.Errorf("phases = %+v", p)
	}
	if p.Checkpoints != 4 || len(p.Gaps) != 3 || p.Gaps[0] != 5*time.Millisecond || p.Gaps[2] != 60*time.Millisecond {
		t.Errorf("checkpoints %d gaps %v", p.Checkpoints, p.Gaps)
	}
	if _, err := splitPhases(t0, nil, 0, at(1)); err == nil {
		t.Error("a call with no checkpoint should not split")
	}
	if _, err := splitPhases(at(500), stamps, 0, at(600)); err == nil {
		t.Error("stamps before the call should be rejected")
	}
}

func TestInFlight(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	for _, c := range []struct {
		obs  []caseObs
		want time.Duration
	}{
		{nil, 0},
		// apart: the gap between them is a pause, not work
		{[]caseObs{{submit: at(30), seen: at(45)}, {submit: at(0), seen: at(15)}}, 30 * time.Millisecond},
		// overlapping
		{[]caseObs{{submit: at(0), seen: at(20)}, {submit: at(5), seen: at(25)}}, 25 * time.Millisecond},
		// nested
		{[]caseObs{{submit: at(0), seen: at(100)}, {submit: at(10), seen: at(90)}}, 100 * time.Millisecond},
	} {
		if got := inFlight(c.obs); got != c.want {
			t.Errorf("inFlight(%v) = %v, want %v", c.obs, got, c.want)
		}
	}
}

func TestStampCtxRunsHookOnce(t *testing.T) {
	calls := 0
	sc := newStampCtx(func() { calls++ })
	start := time.Now()
	for i := 0; i < 3; i++ {
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	p, err := sc.split(start, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || p.Checkpoints != 3 {
		t.Errorf("hook ran %d times over %d checkpoints", calls, p.Checkpoints)
	}
}

func TestAttribute(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		// Innermost repo frame wins, and a layer keeps the runtime
		// work it calls.
		{[]string{"runtime.memmove", "repro/internal/traffic.(*MacroFlow).RemoveMember", "repro/internal/core.(*Defense).capture", "repro/internal/des.(*Simulator).runWindow"}, "traffic"},
		{[]string{"runtime.mallocgc", "runtime.newobject", "repro/internal/netsim.(*Network).Connect", "repro/internal/topology.BuildInternet"}, "netsim"},
		{[]string{"repro/internal/jsonl.(*Log[...]).Record", "repro/internal/scenario.(*Runner).finish"}, "jsonl"},
		{[]string{"repro/internal/lint/flow.Build"}, "repo_other"},
		{[]string{"time.Now", "main.(*stampCtx).Err", "repro/internal/des.(*ShardedSimulator).RunUntil"}, "harness"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.sweepone", "runtime.bgsweep"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime.other"},
		{nil, "runtime.other"},
	} {
		if got := attribute(c.frames); got != c.want {
			t.Errorf("attribute(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// burn is package main, so its samples must land in harness.
func burn(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

func TestAttributeProfileDecodesRealProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles for 300 ms")
	}
	p, err := startCPUProfile()
	if err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	burn(300 * time.Millisecond)
	cpu, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, b := range cpuBuckets {
		if _, ok := cpu[b]; !ok {
			t.Errorf("bucket %s missing", b)
		}
		total += cpu[b]
	}
	if total <= 0 || cpu["harness"] < total/2 {
		t.Errorf("harness %.2fs of %.2fs total; want most of the burn attributed to harness", cpu["harness"], total)
	}
	if _, err := attributeProfile([]byte("not gzip")); err == nil {
		t.Error("garbage profile decoded")
	}
}

func TestValidNames(t *testing.T) {
	for _, s := range []string{"wall_s", "cpu_s.runtime.gc", "service-fleet", "7x", "a.b-c_d"} {
		if !validName(s) {
			t.Errorf("validName(%q) = false", s)
		}
	}
	for _, s := range []string{"", "_x", ".x", "-x", "a b", "a/b", "a%", string(make([]byte, 65))} {
		if validName(s) {
			t.Errorf("validName(%q) = true", s)
		}
	}
	for _, s := range []string{"ms", "s", "1/s", "count", "%", "events/s", "B/node"} {
		if !validUnit(s) {
			t.Errorf("validUnit(%q) = false", s)
		}
	}
	for _, s := range []string{"", "m s", "seconds_per_nodes", "a,b"} {
		if validUnit(s) {
			t.Errorf("validUnit(%q) = true", s)
		}
	}
}

// TestBenchmarkFileMatches checks BENCHMARK.json against the metrics
// this benchmark prints, and the limits the file format sets.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := loadBench("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Errorf("run_seconds %d, %d workloads", b.RunSeconds, len(b.Workloads))
	}
	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 || len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Errorf("%d end-to-end, %d per-layer metrics", len(b.EndToEnd), len(b.PerLayer))
	}
	hasSetup := false
	for _, m := range b.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for _, w := range b.Workloads {
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	var rec recorded
	if err := json.Unmarshal(recordedJSON, &rec); err != nil {
		t.Fatal(err)
	}
}
