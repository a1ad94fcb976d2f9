package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/topology"
)

// internetZombies is the internet-1m sweep point, the largest one
// `hbpsim -scale internet` runs.
const internetZombies = 1_000_000

// scenarioSeed is the simulation workloads' scenario seed: the one
// `hbpsim -scale internet` and the paper's Fig. 8 runs use. It does not
// follow the workload seed, because a run's host cost swings with the
// scenario seed far beyond any bound: over seeds 1 to 10, one
// internet-1m call took 6.1 to 15.1 s as the capture count moved, and
// fig8-paper's round varied by 8%. The workload seed instead orders
// the Fig. 8 defenses.
const scenarioSeed = 1

// fig8Defenses are the three curves of the paper's Fig. 8.
var fig8Defenses = []string{"hbp", "pushback", "none"}

// driverCall is one timed call into a simulation driver.
type driverCall struct {
	name   string
	start  time.Time
	wall   time.Duration
	phases phases
	events uint64
	// digest is the sha256 of the driver's own fingerprint.
	digest string
	// counters are the program-reported outcome counts of the call.
	counters map[string]float64
}

// simRound is one unit of a simulation workload: one RunInternet call,
// or the three Fig. 8 defenses run one after another.
type simRound struct {
	wall  time.Duration
	calls []driverCall
}

// digest combines the calls' digests in a fixed order, whatever order
// the calls ran in.
func (r simRound) digest() string {
	ds := make([]string, len(r.calls))
	for i, c := range r.calls {
		ds[i] = c.name + "=" + c.digest
	}
	sort.Strings(ds)
	return digestOf(strings.Join(ds, "\n"))
}

func (r simRound) events() (ev uint64, sim time.Duration) {
	for _, c := range r.calls {
		ev += c.events
		sim += c.phases.Sim
	}
	return ev, sim
}

func digestOf(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// freshHeap collects the previous call's garbage, untimed, so every
// call starts from the heap a fresh process would have and its GC
// pacing, and with it peak RSS, does not depend on the call before.
func freshHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// internetRound runs experiments.RunInternet on the configuration
// `hbpsim -scale internet` uses for its 10^6 point (8 shards).
func internetRound(_ int64, atFirst func()) (simRound, error) {
	cfg := experiments.InternetConfigFor(internetZombies, scenarioSeed)
	sc := newStampCtx(atFirst)
	cfg.Context = sc
	start := time.Now()
	res, err := experiments.RunInternet(cfg)
	end := time.Now()
	if err != nil {
		return simRound{}, fmt.Errorf("internet-1m: %w", err)
	}
	if !res.Leak.Clean() {
		return simRound{}, fmt.Errorf("internet-1m: teardown leaked %d packets and %d defense state entries",
			res.Leak.PacketsOutstanding, res.Leak.DefenseState)
	}
	ph, err := sc.split(start, end)
	if err != nil {
		return simRound{}, fmt.Errorf("internet-1m: %w", err)
	}
	if res.Wall > 0 {
		// Cross-check: the driver's own simulate timer and the
		// checkpoint split measure the same interval.
		if gap := ph.Sim.Seconds()/res.Wall.Seconds() - 1; gap > 0.05 || gap < -0.05 {
			fmt.Printf("note internet-1m: checkpoint simulate phase %.3fs vs driver Wall %.3fs\n", ph.Sim.Seconds(), res.Wall.Seconds())
		}
	}
	mat := 0.0
	if n := res.AttackSent + res.AttackSkipped; n > 0 {
		mat = float64(res.AttackSent) / float64(n)
	}
	call := driverCall{
		name: "internet", start: start, wall: end.Sub(start), phases: ph, events: res.EventsFired,
		digest: digestOf(res.Fingerprint()),
		counters: map[string]float64{
			"traffic.attack_sent":       float64(res.AttackSent),
			"traffic.legit_sent":        float64(res.LegitSent),
			"traffic.materialized_frac": mat,
			"core.captures":             float64(res.Captures),
			"core.capture_frac":         float64(res.Captures) / float64(cfg.Zombies),
			"core.ctrl_messages":        float64(res.CtrlMessages),
			"core.peak_state":           float64(res.PeakState),
			"netsim.queue_drops":        float64(res.QueueDrops),
		},
	}
	return simRound{wall: call.wall, calls: []driverCall{call}}, nil
}

// fig8Spec is the paper's Fig. 8 case at full scale: a 1000-leaf tree,
// everything else at the defaults (25 attackers at 0.1 Mb/s, 100 s,
// sequential engine).
func fig8Spec(defense string) scenario.CaseSpec {
	return scenario.CaseSpec{Name: "fig8-" + defense, Kind: "tree",
		Tree: &scenario.TreeSpec{Leaves: 1000, Defense: defense}}
}

// fig8Round runs the three Fig. 8 defenses one after another through
// scenario.ExecuteAttempt, the unit a fleet worker executes, in an
// order the workload seed picks.
func fig8Round(seed int64, atFirst func()) (simRound, error) {
	var round simRound
	order := rand.New(rand.NewPCG(uint64(seed), 0x66696738)).Perm(len(fig8Defenses))
	for i, k := range order {
		d := fig8Defenses[k]
		freshHeap()
		spec := fig8Spec(d)
		hook := atFirst
		if i > 0 {
			hook = nil
		}
		sc := newStampCtx(hook)
		start := time.Now()
		res, err := scenario.ExecuteAttempt(sc, &spec, scenarioSeed, 0)
		end := time.Now()
		if err != nil {
			return simRound{}, fmt.Errorf("fig8-paper %s: %w", d, err)
		}
		ph, err := sc.split(start, end)
		if err != nil {
			return simRound{}, fmt.Errorf("fig8-paper %s: %w", d, err)
		}
		t := res.Tree
		call := driverCall{name: d, start: start, wall: end.Sub(start), phases: ph, events: t.EventsFired, digest: res.Fingerprint,
			counters: map[string]float64{"netsim.queue_drops": float64(t.QueueDrops)}}
		if d == "hbp" {
			call.counters["core.captures"] = float64(t.AttackersCaptured)
			call.counters["core.capture_frac"] = float64(t.AttackersCaptured) / 25
			call.counters["core.ctrl_messages"] = float64(t.CtrlMessages)
		}
		round.calls = append(round.calls, call)
		round.wall += call.wall
	}
	return round, nil
}

// buildSpan times the workload's topology build alone, with the
// allocation it costs, as the traced run's netsim.build_* metrics.
func buildSpan(workload string, tr *tracer) (map[string]float64, error) {
	freshHeap()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var nodes int
	var routeBytes int64
	switch workload {
	case "internet-1m":
		cfg := experiments.InternetConfigFor(internetZombies, scenarioSeed)
		it := topology.BuildInternet(des.NewSharded(scenarioSeed, cfg.Shards), cfg.Topology)
		nodes, routeBytes = len(it.Cluster.Nodes()), it.Cluster.RouteBytes()
	default:
		cfg, err := fig8Spec("hbp").Tree.Config()
		if err != nil {
			return nil, err
		}
		t := topology.NewTree(des.New(), cfg.Topology)
		nodes, routeBytes = len(t.Net.Nodes()), t.Net.RouteBytes()
	}
	end := time.Now()
	runtime.ReadMemStats(&after)
	if nodes == 0 {
		return nil, fmt.Errorf("%s: topology build produced no nodes", workload)
	}
	n := float64(nodes)
	m := map[string]float64{
		"netsim.build_s":               end.Sub(start).Seconds(),
		"netsim.build_bytes_per_node":  float64(after.TotalAlloc-before.TotalAlloc) / n,
		"netsim.build_allocs_per_node": float64(after.Mallocs-before.Mallocs) / n,
		"netsim.route_bytes_per_node":  float64(routeBytes) / n,
	}
	tr.add(span{Name: "topology.build", Start: start, End: end, Attrs: m})
	freshHeap()
	return m, nil
}

// simWorkload drives the two simulation workloads.
type simWorkload struct {
	name  string
	round func(seed int64, atFirst func()) (simRound, error)
}

// measure repeats rounds while another one is expected to end within
// the run's time (at least one round) and reports the end-to-end
// metrics.
func (w simWorkload) measure(ctx context.Context, o options, rec *recorded) (*outcome, error) {
	out := newOutcome()
	deadline := time.Now().Add(o.seconds)
	var rounds []simRound
	var peaks roundPeaks
	for len(rounds) == 0 || time.Now().Add(rounds[len(rounds)-1].wall).Before(deadline) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		freshHeap()
		if err := peaks.start(); err != nil {
			return nil, err
		}
		r, err := w.round(o.seed, nil)
		if perr := peaks.end(); perr != nil {
			return nil, perr
		}
		out.attempted++
		if err != nil {
			out.fail("%v", err)
			break
		}
		out.checkDigest(w.name, r.digest(), rec)
		rounds = append(rounds, r)
	}
	if len(rounds) == 0 {
		return out, nil
	}
	var walls, setups, rates, callMS, slowest, gaps []float64
	var calls int
	var callTime time.Duration
	for _, r := range rounds {
		walls = append(walls, r.wall.Seconds())
		ev, sim := r.events()
		rates = append(rates, float64(ev)/sim.Seconds())
		slow := 0.0
		for _, c := range r.calls {
			slow = max(slow, float64(c.wall)/float64(time.Millisecond))
			setups = append(setups, c.phases.Setup.Seconds())
			callMS = append(callMS, float64(c.wall)/float64(time.Millisecond))
			gaps = append(gaps, ms(c.phases.Gaps)...)
			calls++
			callTime += c.wall
		}
		slowest = append(slowest, slow)
	}
	out.e2e["wall_s"] = median(walls)
	out.e2e["setup_s"] = median(setups)
	out.e2e["sim_events_per_s"] = median(rates)
	out.e2e["runs_per_s"] = float64(calls) / callTime.Seconds()
	out.e2e["peak_rss_mib"] = median(peaks)
	out.e2e["rtt_p50_ms"], _ = percentile(gaps, 50)
	out.e2e["rtt_p90_ms"], _ = percentile(gaps, 90)
	out.e2e["sim_rtt_p50_ms"], _ = percentile(callMS, 50)
	// A run makes only 2 to 12 driver calls, too few for a p90 with
	// ten calls beyond it, and a nearest-rank p90 over 9 or 12 calls
	// picks a different call of the slowest defense depending on how
	// many rounds fit. The round's slowest call, median over rounds,
	// reads the same at any round count.
	out.e2e["sim_rtt_p90_ms"] = median(slowest)
	out.samples = fmt.Sprintf("%d rounds, %d driver calls, %d checkpoint gaps; round walls %.3g s",
		len(rounds), calls, len(gaps), walls)
	return out, nil
}

// traced runs one untraced reference round, the standalone build span
// and one traced round under the CPU profiler, and reports the
// per-layer metrics.
func (w simWorkload) traced(ctx context.Context, o options, rec *recorded) (*outcome, error) {
	out := newOutcome()
	ref, err := w.round(o.seed, nil)
	out.attempted++
	if err != nil {
		out.fail("%v", err)
		return out, nil
	}
	out.checkDigest(w.name, ref.digest(), rec)

	tr := &tracer{}
	build, err := buildSpan(w.name, tr)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// One CPU profile per phase: the first checkpoint of the round
	// stops the set-up profile and starts the simulate one.
	var setupCPU map[string]float64
	var profErr error
	prof, err := startCPUProfile()
	if err != nil {
		return nil, err
	}
	switchProfile := func() {
		if setupCPU, profErr = prof.stop(); profErr == nil {
			prof, profErr = startCPUProfile()
		}
	}
	rt := readRuntime()
	start := time.Now()
	r, err := w.round(o.seed, switchProfile)
	end := time.Now()
	rtDelta := readRuntime().since(rt)
	if profErr != nil {
		return nil, profErr
	}
	simCPU, err2 := prof.stop()
	out.attempted++
	if err != nil {
		out.fail("%v", err)
		return out, nil
	}
	if err2 != nil {
		return nil, err2
	}
	if r.digest() != ref.digest() {
		out.fail("%s: traced round fingerprint %s differs from untraced %s", w.name, r.digest(), ref.digest())
	}

	l := out.layer
	for k, v := range build {
		l[k] = v
	}
	for _, c := range r.calls {
		for k, v := range c.counters {
			if k == "netsim.queue_drops" {
				l[k] += v
			} else {
				l[k] = v
			}
		}
		simStart := c.start.Add(c.phases.Setup)
		simEnd := c.start.Add(c.wall - c.phases.Teardown)
		tr.add(span{Name: "phase.setup", Parent: "round", Start: c.start, End: simStart})
		tr.add(span{Name: "phase.sim", Parent: "round", Start: simStart, End: simEnd})
		tr.add(span{Name: "phase.teardown", Parent: "round", Start: simEnd, End: c.start.Add(c.wall)})
	}
	var setups, sims, teardowns []float64
	var ev uint64
	var checkpoints int
	for _, c := range r.calls {
		setups = append(setups, c.phases.Setup.Seconds())
		sims = append(sims, c.phases.Sim.Seconds())
		teardowns = append(teardowns, c.phases.Teardown.Seconds())
		ev += c.events
		checkpoints += c.phases.Checkpoints
	}
	l["phase.setup_s"] = median(setups)
	l["phase.sim_s"] = median(sims)
	l["phase.teardown_s"] = median(teardowns)
	l["des.events"] = float64(ev)
	l["des.checkpoints"] = float64(checkpoints)
	l["des.events_per_checkpoint"] = float64(ev) / float64(checkpoints)
	for k, v := range rtDelta {
		l[k] = v
	}
	addCPU(l, setupCPU, simCPU)
	l["tracing.overhead_frac"] = r.wall.Seconds()/ref.wall.Seconds() - 1

	out.notes = append(out.notes,
		fmt.Sprintf("wall untraced %.3fs traced %.3fs", ref.wall.Seconds(), r.wall.Seconds()),
		"top cpu set-up (first call): "+topLine(setupCPU),
		"top cpu simulate+teardown: "+topLine(simCPU))
	out.tr = tr
	tr.add(span{Name: "round", Start: start, End: end})
	return out, nil
}

func topLine(cpu map[string]float64) string {
	s := ""
	for _, b := range topBuckets(cpu, 3) {
		s += fmt.Sprintf(" %s=%.2fs", b, cpu[b])
	}
	return s
}
