package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/roaming"
)

// The experiment pipeline: every HBP run is built, run and torn down
// through the plain functions below, so the tree, forest, internet and
// string-topology drivers differ only in their topology and workload.
// See DESIGN.md, "Experiment pipeline".

// hbpStack is one honeypot back-propagation instance: the roaming
// pool, its server agents and the defense.
type hbpStack struct {
	pool   *roaming.Pool
	agents []*roaming.ServerAgent
	def    *core.Defense
}

// newHBP builds a roaming pool over servers, subscribes one server
// agent per node of agentServers in order — NewServerAgent subscribes
// to the pool, so agent order is schedule order — and constructs the
// defense on net. The caller deploys it: DeployAll(st.agents), or
// RunTree's per-AS deployment.
func newHBP(net *netsim.Network, servers, agentServers []*netsim.Node, pcfg roaming.Config, isHost func(*netsim.Node) bool, ccfg core.Config) (*hbpStack, error) {
	pool, err := roaming.NewPool(net.Sim, servers, pcfg)
	if err != nil {
		return nil, err
	}
	st := &hbpStack{pool: pool}
	for _, s := range agentServers {
		st.agents = append(st.agents, roaming.NewServerAgent(pool, s))
	}
	if st.def, err = core.New(net, pool, isHost, ccfg); err != nil {
		return nil, err
	}
	return st, nil
}

// checkpoint returns the cooperative interrupt a run polls: it fails
// with des.ErrEventLimit once fired() passes limit (0: no limit), then
// with ctx's error (nil ctx: never). It is nil when neither applies, so
// no checkpoint is installed. Polling never perturbs event order: an
// uninterrupted run is bit-identical with or without it.
func checkpoint(ctx context.Context, limit uint64, fired func() uint64) func() error {
	if ctx == nil && limit == 0 {
		return nil
	}
	return func() error {
		if limit > 0 && fired() > limit {
			return des.ErrEventLimit
		}
		if ctx != nil {
			return ctx.Err()
		}
		return nil
	}
}

// runSim runs a sequential simulation to end with ctx's cancellation
// installed; a nil ctx runs it to completion.
func runSim(ctx context.Context, sim *des.Simulator, end float64) error {
	sim.SetInterrupt(0, checkpoint(ctx, 0, nil))
	return sim.RunUntil(end)
}

// stopwatch starts a host-clock timer; calling the result reads the
// time elapsed since.
func stopwatch() func() time.Duration {
	start := time.Now() //hbplint:ignore determinism wall clock only times the host's execution for reports; it never feeds simulation state.
	//hbplint:ignore determinism wall clock only times the host's execution for reports; it never feeds simulation state.
	return func() time.Duration { return time.Since(start) }
}

// runAudited runs a built scenario to end and returns the host time the
// run took. run is the driving engine's RunUntil; now and fired read
// its clock and event count for the abort message. An aborted run —
// event limit or cancellation — still closes every defense and drains
// the network before the wrapped error returns: the scenario service
// reuses the process for the next run.
func runAudited(run func(float64) error, end float64, now func() float64, fired func() uint64, defs []*core.Defense, drain func()) (time.Duration, error) {
	wall := stopwatch()
	if err := run(end); err != nil {
		for _, d := range defs {
			d.Close()
		}
		drain()
		return 0, fmt.Errorf("experiments: run aborted at t=%.1fs after %d events: %w", now(), fired(), err)
	}
	return wall(), nil
}

// LeakReport is the leak-checked teardown audit of one completed run.
type LeakReport struct {
	// PacketsOutstanding is netsim.Network.PacketsOutstanding after
	// the drain: pool packets some handler or agent stranded past
	// their terminal point.
	PacketsOutstanding int64
	// DefenseState is core.Defense.StateSize after Close: sessions,
	// dedup entries or pending transfers that survived teardown (0 for
	// non-HBP defenses).
	DefenseState int
}

// Clean reports whether the teardown reclaimed everything.
func (l LeakReport) Clean() bool { return l.PacketsOutstanding == 0 && l.DefenseState == 0 }

// teardown ends a completed run once its results are collected (Close
// wipes live gauges such as open sessions): every defense closes, the
// network drains, and the returned audit must read clean — a
// supervised scenario run fails otherwise.
func teardown(defs []*core.Defense, drain func(), outstanding func() int64) LeakReport {
	var leak LeakReport
	for _, d := range defs {
		d.Close()
		leak.DefenseState += d.StateSize()
	}
	drain()
	leak.PacketsOutstanding = outstanding()
	return leak
}

// ShardedResult is what the sharded drivers' results share: totals
// over the cluster parts, the run's host time and leak audit, and the
// per-part fingerprint. ForestResult and InternetResult embed it.
type ShardedResult struct {
	// Captures counts attack hosts captured, summed over parts.
	Captures int
	// CtrlMessages sums the per-part defenses' control overhead.
	CtrlMessages int64
	// QueueDrops is the cluster-wide drop-tail loss count.
	QueueDrops int64
	// EventsFired sums dispatched events over all shards; it must be
	// identical at every shard count.
	EventsFired uint64
	// Wall is the host time of the simulation run alone (the speedup
	// numerator): set-up and teardown are excluded.
	Wall time.Duration
	// Leak is the post-teardown resource audit (see LeakReport).
	Leak LeakReport

	partFPs []string
}

// Fingerprint is the determinism digest of the run: one line per part
// — its capture schedule (time, router, attacker), the driver's own
// per-part counters and its control overhead — plus the cluster drop
// count. Runs of one config at different shard counts must produce
// byte-identical fingerprints.
func (r *ShardedResult) Fingerprint() string {
	return strings.Join(r.partFPs, "\n") + fmt.Sprintf("\ndrops=%d", r.QueueDrops)
}

// hbpPart is one cluster part of a sharded HBP run: its stack and its
// capture log in fingerprint format.
type hbpPart struct {
	hbpStack
	caps []string
}

// record is the part's capture hook.
func (p *hbpPart) record(c core.Capture) {
	p.caps = append(p.caps, fmt.Sprintf("%.9f:%d>%d", c.Time, c.Router, c.Attacker))
}

// run drives a built sharded scenario to end under ctx and the event
// limit, recording its host time.
func (r *ShardedResult) run(ctx context.Context, ss *des.ShardedSimulator, cl *netsim.Cluster, defs []*core.Defense, limit uint64, end float64) error {
	ss.SetInterrupt(0, checkpoint(ctx, limit, ss.Fired))
	var err error
	r.Wall, err = runAudited(ss.RunUntil, end, ss.Now, ss.Fired, defs, cl.Drain)
	return err
}

// addPart folds part i into the totals and appends its fingerprint
// line; detail carries the driver's own per-part counters.
func (r *ShardedResult) addPart(i int, p *hbpPart, detail string) {
	r.Captures += len(p.caps)
	r.CtrlMessages += p.def.MsgSent
	r.partFPs = append(r.partFPs, fmt.Sprintf("part%d caps[%s] %s ctrl=%d",
		i, strings.Join(p.caps, ","), detail, p.def.MsgSent))
}

// finish records the cluster-wide totals of a completed run, after
// every part is added, and tears it down.
func (r *ShardedResult) finish(ss *des.ShardedSimulator, cl *netsim.Cluster, defs []*core.Defense) {
	r.QueueDrops = cl.TotalQueueDrops()
	r.EventsFired = ss.Fired()
	r.Leak = teardown(defs, cl.Drain, cl.PacketsOutstanding)
}

// firstCapture stops a run at its first capture: hit is the capture
// hook (wrapped per defense type) and runFrom reports the delay from
// the attack start to that capture.
type firstCapture struct {
	sim    *des.Simulator
	at     float64
	caught bool
}

func (f *firstCapture) hit(t float64) {
	if !f.caught {
		f.at, f.caught = t, true
	}
	f.sim.Stop()
}

// runFrom schedules attack at start, runs to end under ctx and returns
// the delay from start to the first capture, if any.
func (f *firstCapture) runFrom(ctx context.Context, start, end float64, attack func()) (float64, bool, error) {
	f.sim.At(start, attack)
	if err := runSim(ctx, f.sim, end); err != nil {
		return 0, false, err
	}
	if !f.caught {
		return 0, false, nil
	}
	return f.at - start, true, nil
}
