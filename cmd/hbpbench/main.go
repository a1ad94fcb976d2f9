// Command hbpbench is the repository's benchmark: four workloads run
// against the program's public entry points, every run checked
// against the fixed-seed fingerprints, with a separate traced run for
// the per-layer metrics. See README.md in this directory.
//
//	hbpbench --workload internet-1m --seed 1 --seconds 20 --trace 0
//	hbpbench steady --workload fig8-paper --runs 10
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it repeat
// every metric by name and unit for a human reader.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchFile is the part of BENCHMARK.json the benchmark reads back to
// check that it prints exactly the metrics the file declares.
type benchFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// endToEnd are the metrics a trace-0 run prints, on every workload.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s"},
	{Name: "setup_s", Unit: "s"},
	{Name: "sim_events_per_s", Unit: "events/s"},
	{Name: "peak_rss_mib", Unit: "MiB"},
	{Name: "rtt_p50_ms", Unit: "ms"},
	{Name: "rtt_p90_ms", Unit: "ms"},
	{Name: "sim_rtt_p50_ms", Unit: "ms"},
	{Name: "sim_rtt_p90_ms", Unit: "ms"},
	{Name: "runs_per_s", Unit: "runs/s"},
}

// perLayer are the metrics a trace-1 run prints. A metric that does
// not apply to a workload reads 0 and is marked n/a in the text
// report.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "failed_frac", Unit: "ratio"},
		{Name: "tracing.overhead_frac", Unit: "ratio"},
		{Name: "phase.setup_s", Unit: "s"},
		{Name: "phase.sim_s", Unit: "s"},
		{Name: "phase.teardown_s", Unit: "s"},
	}
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{Name: "cpu_s." + b, Unit: "s"})
	}
	return append(defs, []metricDef{
		{Name: "netsim.build_s", Unit: "s"},
		{Name: "netsim.build_bytes_per_node", Unit: "B/node"},
		{Name: "netsim.build_allocs_per_node", Unit: "allocs/node"},
		{Name: "netsim.route_bytes_per_node", Unit: "B/node"},
		{Name: "des.events", Unit: "count"},
		{Name: "des.checkpoints", Unit: "count"},
		{Name: "des.events_per_checkpoint", Unit: "events"},
		{Name: "traffic.attack_sent", Unit: "count"},
		{Name: "traffic.legit_sent", Unit: "count"},
		{Name: "traffic.materialized_frac", Unit: "ratio"},
		{Name: "core.captures", Unit: "count"},
		{Name: "core.capture_frac", Unit: "ratio"},
		{Name: "core.ctrl_messages", Unit: "count"},
		{Name: "core.peak_state", Unit: "count"},
		{Name: "netsim.queue_drops", Unit: "count"},
		{Name: "runtime.gc_cycles", Unit: "count"},
		{Name: "runtime.alloc_bytes", Unit: "B"},
		{Name: "runtime.gc_cpu_frac", Unit: "ratio"},
		{Name: "scenario.start_ms", Unit: "ms"},
		{Name: "scenario.queue_wait_ms", Unit: "ms"},
		{Name: "scenario.exec_ms.figure", Unit: "ms"},
		{Name: "scenario.exec_ms.tree", Unit: "ms"},
		{Name: "scenario.notify_lag_ms", Unit: "ms"},
		{Name: "scenario.http.submit.busy_ms", Unit: "ms/run"},
		{Name: "scenario.http.get_run.busy_ms", Unit: "ms/run"},
		{Name: "fleet.start_ms", Unit: "ms"},
		{Name: "fleet.dispatch_wait_ms", Unit: "ms"},
		{Name: "fleet.lease_calls_per_run", Unit: "calls/run"},
		{Name: "fleet.lease_hit_frac", Unit: "ratio"},
		{Name: "fleet.lease_ms", Unit: "ms"},
		{Name: "fleet.complete_ms", Unit: "ms"},
		{Name: "fleet.heartbeats_per_run", Unit: "calls/run"},
		{Name: "fleet.redispatches", Unit: "count"},
		{Name: "fleet.lease_expiries", Unit: "count"},
		{Name: "fleet.duplicate_completions", Unit: "count"},
		{Name: "fleet.http.submit.busy_ms", Unit: "ms/run"},
		{Name: "fleet.http.get_run.busy_ms", Unit: "ms/run"},
		{Name: "fleet.http.lease.busy_ms", Unit: "ms/run"},
		{Name: "fleet.http.complete.busy_ms", Unit: "ms/run"},
		{Name: "jsonl.record_ms.p50", Unit: "ms"},
		{Name: "jsonl.record_ms.p99", Unit: "ms"},
		{Name: "jsonl.records_per_run", Unit: "records/run"},
		{Name: "jsonl.bytes_per_run", Unit: "B/run"},
		{Name: "client.polls_per_run", Unit: "polls/run"},
	}...)
}()

// workload is one benchmark input set: measure gives the end-to-end
// metrics, traced the per-layer ones.
type workload interface {
	measure(ctx context.Context, o options, rec *recorded) (*outcome, error)
	traced(ctx context.Context, o options, rec *recorded) (*outcome, error)
}

var workloads = map[string]workload{
	"internet-1m": simWorkload{name: "internet-1m", round: internetRound},
	"fig8-paper":  simWorkload{name: "fig8-paper", round: fig8Round},
	// 13 rounds give 104 completions of each case kind, so p90 has at
	// least ten samples beyond it; each served tree case stays in the
	// runner's memory (about 22 MB each at this commit), which caps
	// service-hbpsimd there. The fleet keeps only decoded results and
	// runs 45 rounds, 360 analytical cases: their wait for a worker's
	// 50 ms lease poll is spread evenly over tens of milliseconds, so
	// its median needs more samples to hold still.
	"service-hbpsimd": serviceWorkload{name: "service-hbpsimd", start: startHbpsimd, rounds: 13},
	"service-fleet":   serviceWorkload{name: "service-fleet", start: startFleet, rounds: 45},
}

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// scratch is the benchmark's own directory for journals and span
	// dumps, inside the checkout.
	scratch string
}

// recorded is recorded.json, which also names the host the
// benchmark was tuned on: the fingerprint digest of each simulation
// workload at its scenario seed.
type recorded struct {
	Fingerprints map[string]string `json:"fingerprints"`
}

//go:embed recorded.json
var recordedJSON []byte

// outcome is what one workload run reports.
type outcome struct {
	attempted, failed int
	problems          []string
	e2e, layer        map[string]float64
	// digests are the fingerprint digests seen, in order.
	digests []string
	// samples and notes are printed for the human reader.
	samples string
	notes   []string
	tr      *tracer
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// checkDigest compares a simulation round's digest with the one
// recorded for the workload or, with none recorded, with the first
// round of this run.
func (o *outcome) checkDigest(workload, digest string, rec *recorded) {
	want := rec.Fingerprints[workload]
	if want == "" && len(o.digests) > 0 {
		want = o.digests[0]
	}
	o.digests = append(o.digests, digest)
	if want != "" && digest != want {
		o.fail("%s: fingerprint %s, want %s", workload, digest, want)
	}
}

// runtimeSample is a reading of the runtime's cumulative GC counters.
type runtimeSample []metrics.Sample

func readRuntime() runtimeSample {
	s := runtimeSample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s
}

func (s runtimeSample) value(i int) float64 {
	switch s[i].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[i].Value.Uint64())
	case metrics.KindFloat64:
		return s[i].Value.Float64()
	}
	return 0
}

// since returns the GC work done between prev and s.
func (s runtimeSample) since(prev runtimeSample) map[string]float64 {
	m := map[string]float64{
		"runtime.gc_cycles":   s.value(0) - prev.value(0),
		"runtime.alloc_bytes": s.value(1) - prev.value(1),
	}
	if total := s.value(3) - prev.value(3); total > 0 {
		m["runtime.gc_cpu_frac"] = (s.value(2) - prev.value(2)) / total
	}
	return m
}

// addCPU sums per-bucket CPU profiles into the cpu_s.* metrics.
func addCPU(l map[string]float64, profiles ...map[string]float64) {
	for _, p := range profiles {
		for b, v := range p {
			l["cpu_s."+b] += v
		}
	}
}

// roundPeaks collects the peak resident set size of each round. A
// process's VmHWM is the largest RSS it ever had, and in a GC'd
// process that maximum hangs on rare overshoots: one fleet run in
// three or four jumped from about 109 to 140-150 MiB in a single
// round. The median of per-round peaks stays with the typical round.
type roundPeaks []float64

// start sets VmHWM back to the current RSS (Linux clear_refs 5), so
// the next reading covers one round.
func (roundPeaks) start() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	if _, err := f.WriteString("5"); err != nil {
		f.Close()
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return f.Close()
}

// end records the round's peak.
func (p *roundPeaks) end() error {
	hwm, err := vmHWM()
	*p = append(*p, hwm)
	return err
}

// vmHWM reads the process's peak resident set size in MiB.
func vmHWM() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// loadBench reads BENCHMARK.json and checks that it declares exactly
// the metrics this benchmark prints, with legal names and units.
func loadBench(path string) (*benchFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := sameMetrics("end_to_end", b.EndToEnd, endToEnd); err != nil {
		return nil, err
	}
	if err := sameMetrics("per_layer", b.PerLayer, perLayer); err != nil {
		return nil, err
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok || !validName(w.Name) {
			return nil, fmt.Errorf("BENCHMARK.json workload %q is not one this benchmark runs", w.Name)
		}
	}
	return &b, nil
}

func sameMetrics(section string, file, code []metricDef) error {
	if len(file) != len(code) {
		return fmt.Errorf("BENCHMARK.json %s lists %d metrics, the benchmark prints %d", section, len(file), len(code))
	}
	seen := map[string]bool{}
	for i, m := range file {
		if !validName(m.Name) || !validUnit(m.Unit) || seen[m.Name] {
			return fmt.Errorf("BENCHMARK.json %s: bad or repeated metric %q (unit %q)", section, m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Name != code[i].Name || m.Unit != code[i].Unit {
			return fmt.Errorf("BENCHMARK.json %s[%d] is %s (%s), the benchmark prints %s (%s)",
				section, i, m.Name, m.Unit, code[i].Name, code[i].Unit)
		}
	}
	return nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steady(os.Args[2:], os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("hbpbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: internet-1m, fig8-paper, service-hbpsimd or service-fleet")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "how long the run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer metrics")
	scratch := fs.String("scratch", ".bench_build/run", "directory for journals and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "hbpbench: unknown workload %q or bad --seconds/--trace\n", *name)
		return 2
	}
	bench, err := loadBench("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "hbpbench: %v\n", err)
		return 1
	}
	var rec recorded
	if err := json.Unmarshal(recordedJSON, &rec); err != nil {
		fmt.Fprintf(os.Stderr, "hbpbench: recorded.json: %v\n", err)
		return 1
	}
	o := options{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, scratch: *scratch}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "hbpbench: %v\n", err)
		return 1
	}
	// Every run must finish inside the 180 s the contract allows.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	fmt.Fprintf(stdout, "hbpbench %s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d %s\n",
		o.workload, o.seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	var out *outcome
	if o.trace {
		out, err = w.traced(ctx, o, &rec)
	} else {
		out, err = w.measure(ctx, o, &rec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hbpbench: %s: %v\n", o.workload, err)
		return 1
	}
	if out.attempted > 0 {
		out.layer["failed_frac"] = float64(out.failed) / float64(out.attempted)
	}

	defs, values := bench.EndToEnd, out.e2e
	if o.trace {
		defs, values = bench.PerLayer, out.layer
	}
	res := result{Correct: out.failed == 0 && out.attempted > 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		switch {
		case ok:
			fmt.Fprintf(stdout, "metric %-32s %16.6g %s\n", d.Name, v, d.Unit)
		case !o.trace && out.failed == 0:
			fmt.Fprintf(os.Stderr, "hbpbench: %s: end-to-end metric %s was not measured\n", o.workload, d.Name)
			return 1
		default:
			fmt.Fprintf(stdout, "metric %-32s %16s %s\n", d.Name, "n/a", d.Unit)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if out.samples != "" {
		fmt.Fprintf(stdout, "samples %s\n", out.samples)
	}
	for _, n := range out.notes {
		fmt.Fprintf(stdout, "note %s\n", n)
	}
	for _, d := range uniq(out.digests) {
		fmt.Fprintf(stdout, "fingerprint %s %s\n", o.workload, d)
	}
	for _, p := range out.problems {
		fmt.Fprintf(stdout, "FAILED %s\n", p)
	}
	if out.tr != nil {
		path := spanPath(o.scratch, o.workload, o.seed)
		if err := out.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "hbpbench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans %s\n", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hbpbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func uniq(xs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Strings(out)
	return out
}

// scratchDir makes a fresh directory for one run's journals.
func scratchDir(o options, name string) (string, error) {
	dir := filepath.Join(o.scratch, fmt.Sprintf("%s-seed%d-%s-%d", o.workload, o.seed, name, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
