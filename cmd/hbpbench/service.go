package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/jsonl"
	"repro/internal/scenario"
)

const (
	// clients is the closed loop's width: one client per core of the
	// 2-core machine the benchmark was sized on, each with at most one
	// request in flight.
	clients = 2
	// pairsPerRound is how many (analytical, tree) case pairs each
	// client completes per round; a round is the unit wall_s times.
	pairsPerRound = 4
	// pollEvery is the clients' WaitRun poll interval, fixed so every
	// commit is measured with the same read load. At 5 ms the
	// analytical round trips split into a mode caught by the first poll
	// (about 1.3 ms) and one a poll later (about 6.5 ms), and the
	// median swung between them; at 2 ms the modes sit closer.
	pollEvery = 2 * time.Millisecond
	// treeSeeds is how many seeds the tiny tree cases cycle through.
	// The set is the same for every workload seed: tiny-tree cost
	// varies by about 12% between tree seeds, so a set drawn from the
	// workload seed would move sim_rtt_* with the seed, not with the
	// program.
	treeSeeds = 8
	// workerPoll is fleet.Worker's default idle lease poll, which the
	// benchmark's workers keep.
	workerPoll = 50 * time.Millisecond
)

// caseSet is the fixed service case mix for one workload seed, with
// the solo fingerprint each case must reproduce.
type caseSet struct {
	figure scenario.CaseSpec
	trees  []scenario.CaseSpec
	// order is the workload seed's permutation of trees: the order in
	// which the clients submit them.
	order []int
	want  map[string]string // caseKey -> RunCaseSolo fingerprint
}

func caseKey(spec *scenario.CaseSpec) string {
	if spec.Tree != nil {
		return "tree-" + strconv.FormatInt(baseSeed(spec), 10)
	}
	return "figure-" + spec.Figure.Fig
}

// baseSeed is the base seed a runner or coordinator resolves for a
// spec: the tree seed, or 1.
func baseSeed(spec *scenario.CaseSpec) int64 {
	if spec.Tree != nil && spec.Tree.Seed != 0 {
		return spec.Tree.Seed
	}
	return 1
}

// newCaseSet builds the mix: (a) Fig. 5 analytical at quick scale,
// about a millisecond of execution, so its round trip is the service's
// own overhead; (b) a tiny tree (12 leaves, 3 attackers, 10 s), about
// 100 ms of simulation, with tree seeds 1 to treeSeeds. The workload
// seed orders the trees. Every case's expected fingerprint comes from
// scenario.RunCaseSolo.
func newCaseSet(seed int64) (*caseSet, error) {
	cs := &caseSet{
		figure: scenario.CaseSpec{Name: "fig5", Kind: "figure",
			Figure: &scenario.FigureSpec{Fig: "5", Scale: "quick"}},
		order: rand.New(rand.NewPCG(uint64(seed), 0x6862706265)).Perm(treeSeeds),
		want:  map[string]string{},
	}
	for i := 0; i < treeSeeds; i++ {
		cs.trees = append(cs.trees, scenario.CaseSpec{Name: "tiny", Kind: "tree",
			Tree: &scenario.TreeSpec{Leaves: 12, Attackers: 3, DurationSec: 10, Seed: int64(i) + 1}})
	}
	for _, spec := range append([]scenario.CaseSpec{cs.figure}, cs.trees...) {
		spec := spec
		res, err := scenario.RunCaseSolo(&spec, baseSeed(&spec))
		if err != nil {
			return nil, fmt.Errorf("solo %s: %w", caseKey(&spec), err)
		}
		cs.want[caseKey(&spec)] = res.Fingerprint
	}
	return cs, nil
}

// stack is one running service under test.
type stack struct {
	base    string
	journal string
	startMS float64
	// think bounds each client's pause before it submits an
	// analytical case, drawn from the workload seed; zero means no
	// pause. An idle fleet worker leases on a free-running ticker, so
	// an analytical case waits for the next tick. Submitted right after
	// the tree step, it would land at a tick phase set by how long the
	// trees took, and a few percent of host speed moved the median
	// wait by milliseconds. A pause drawn over a whole tick period
	// spreads the phase evenly on every host, and one pause per client
	// keeps the two clients' waits apart. The scenario runner has no
	// ticker, so its clients do not pause.
	think time.Duration
	// fleetStats is set for the fleet coordinator.
	fleetStats func() fleet.Stats
	shutdown   func(context.Context) error
}

// serve starts an HTTP server for h on a loopback port. Service
// traffic crosses loopback, never a real link.
func serve(h http.Handler) (base string, stop func(context.Context) error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stop = func(ctx context.Context) error {
		err := srv.Shutdown(ctx)
		if serr := <-done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		return err
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// startHbpsimd runs what hbpsimd serves, in process: a scenario.Runner
// with 2 workers and an fsynced journal behind scenario.NewServer.
func startHbpsimd(dir string, tr *tracer) (*stack, error) {
	start := time.Now()
	path := filepath.Join(dir, "hbpsimd.jsonl")
	j, _, err := scenario.OpenJournal(path)
	if err != nil {
		return nil, err
	}
	r := scenario.NewRunner(scenario.Config{Workers: 2, Journal: j}, nil)
	r.Start()
	base, stop, err := serve(timedHandler("scenario", scenario.NewServer(r), tr))
	if err != nil {
		j.Close()
		return nil, err
	}
	return &stack{
		base: base, journal: path,
		startMS: float64(time.Since(start)) / float64(time.Millisecond),
		shutdown: func(ctx context.Context) error {
			err := stop(ctx)
			if derr := r.Drain(ctx); err == nil {
				err = derr
			}
			if cerr := j.Close(); err == nil {
				err = cerr
			}
			return err
		},
	}, nil
}

// startFleet runs what hbpfleet serves, in process: a
// fleet.Coordinator with an fsynced journal behind fleet.NewServer,
// served by 2 fleet.Workers (capacity 1, default 50 ms poll) talking
// to it over loopback HTTP through fleet.NewRemoteCoord.
func startFleet(dir string, tr *tracer) (*stack, error) {
	start := time.Now()
	path := filepath.Join(dir, "fleet.jsonl")
	j, _, err := fleet.OpenJournal(path)
	if err != nil {
		return nil, err
	}
	coord := fleet.NewCoordinator(fleet.Config{Journal: j}, nil)
	coord.Start()
	base, stop, err := serve(timedHandler("fleet", fleet.NewServer(coord), tr))
	if err != nil {
		coord.Stop()
		j.Close()
		return nil, err
	}
	transport := &http.Transport{}
	remote := fleet.NewRemoteCoord(base)
	remote.HTTP = &http.Client{Transport: transport}
	var wc fleet.Coord = remote
	if tr != nil {
		wc = &timedCoord{inner: remote, tr: tr}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		if i > 0 {
			// Stagger the second worker by half the lease poll, so
			// the two idle polls interleave the same way in every
			// run rather than at a start-up race's phase.
			time.Sleep(workerPoll / 2)
		}
		w := fleet.NewWorker(fleet.WorkerConfig{Name: fmt.Sprintf("bench-w%d", i+1), Capacity: 1}, wc)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx) //nolint:errcheck // returns ctx.Err() at shutdown
		}()
	}
	shutdown := func(sctx context.Context) error {
		cancel()
		wg.Wait()
		transport.CloseIdleConnections()
		err := stop(sctx)
		if derr := coord.Drain(sctx); err == nil {
			err = derr
		}
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		return err
	}
	for coord.Health().Workers < 2 {
		if time.Since(start) > 10*time.Second {
			shutdown(context.Background()) //nolint:errcheck // already failing
			return nil, errors.New("fleet workers did not register")
		}
		time.Sleep(time.Millisecond)
	}
	return &stack{
		base: base, journal: path,
		startMS:    float64(time.Since(start)) / float64(time.Millisecond),
		think:      workerPoll,
		fleetStats: coord.Stats,
		shutdown:   shutdown,
	}, nil
}

// timedCoord wraps the fleet.Coord a worker is given and records a
// span per Lease, Heartbeat and Complete call.
type timedCoord struct {
	inner fleet.Coord
	tr    *tracer
}

func (c *timedCoord) Register(info fleet.WorkerInfo) (string, error) { return c.inner.Register(info) }

func (c *timedCoord) Lease(workerID string) (*fleet.Assignment, error) {
	start := time.Now()
	a, err := c.inner.Lease(workerID)
	s := span{Name: "fleet.lease_empty", Start: start, End: time.Now(), Failed: err != nil}
	if a != nil {
		s.Name, s.Trace = "fleet.lease", a.Run
	}
	c.tr.add(s)
	return a, err
}

func (c *timedCoord) Heartbeat(workerID, runID string, dispatch int) (fleet.Directive, error) {
	start := time.Now()
	d, err := c.inner.Heartbeat(workerID, runID, dispatch)
	c.tr.add(span{Name: "fleet.heartbeat", Trace: runID, Start: start, End: time.Now(), Failed: err != nil})
	return d, err
}

func (c *timedCoord) Complete(workerID, runID string, dispatch int, out fleet.Outcome) error {
	start := time.Now()
	err := c.inner.Complete(workerID, runID, dispatch, out)
	c.tr.add(span{Name: "fleet.complete", Trace: runID, Start: start, End: time.Now(), Failed: err != nil})
	return err
}

// caseObs is one case's round trip as the client saw it.
type caseObs struct {
	kind         string
	submit, seen time.Time
	run          scenario.Run
	err          error
	ok           bool
}

func (c caseObs) rtt() time.Duration { return c.seen.Sub(c.submit) }

// svcRound is one round of the closed loop: every client completes
// pairsPerRound case pairs.
type svcRound struct {
	wall   time.Duration
	cases  []caseObs
	events uint64 // events fired by the round's passed tree cases
}

// loadGen is the closed-loop load generator.
type loadGen struct {
	clients []*scenario.Client
	suite   string
	cs      *caseSet
	rounds  int
	named   int
	think   time.Duration
	pauses  *rand.Rand
}

func newLoadGen(ctx context.Context, st *stack, cs *caseSet, seed int64, tr *tracer) (*loadGen, error) {
	var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
	if tr != nil {
		rt = &timedTransport{base: rt, tr: tr}
	}
	hc := &http.Client{Transport: rt}
	g := &loadGen{cs: cs, think: st.think, pauses: rand.New(rand.NewPCG(uint64(seed), 0x7468696e6b))}
	for i := 0; i < clients; i++ {
		c := scenario.NewClient(st.base)
		c.HTTP = hc
		c.Seed = seed*clients + int64(i) + 1
		g.clients = append(g.clients, c)
	}
	s, err := g.clients[0].CreateSuite(ctx, scenario.SuiteSpec{Name: "hbpbench"})
	if err != nil {
		return nil, fmt.Errorf("create suite: %w", err)
	}
	g.suite = s.Suite.ID
	return g, nil
}

// round runs one closed-loop round in steps: in each step every client
// submits one case and waits for it, and the next step starts when all
// have finished. Steps alternate the analytical and the tree case, so
// analytical cases never run beside a simulation and both trees of a
// step always share the cores. Unsynchronised, a client's analytical
// case raced the other client's tree for a core, and whether its first
// poll already found it finished flipped the median between about 1.3
// and 3.5 ms from run to run. On the fleet each client pauses before
// its analytical case (see stack.think). The round's wall time is the time some case was
// in flight, so the pauses stay out of it.
func (g *loadGen) round(ctx context.Context) svcRound {
	r := svcRound{}
	for step := 0; step < 2*pairsPerRound; step++ {
		obs := make([]caseObs, len(g.clients))
		var wg sync.WaitGroup
		for ci, c := range g.clients {
			spec := g.cs.figure
			var pause time.Duration
			if step%2 == 1 {
				k := (g.rounds*pairsPerRound+step/2)*len(g.clients) + ci
				spec = g.cs.trees[g.cs.order[k%len(g.cs.order)]]
			} else if g.think > 0 {
				pause = time.Duration(g.pauses.Int64N(int64(g.think)))
			}
			g.named++
			spec.Name = fmt.Sprintf("%s-%d", spec.Name, g.named)
			wg.Add(1)
			go func(ci int, c *scenario.Client) {
				defer wg.Done()
				time.Sleep(pause)
				obs[ci] = g.play(ctx, c, &spec)
			}(ci, c)
		}
		wg.Wait()
		for _, o := range obs {
			if o.ok && o.run.Result.Tree != nil {
				r.events += o.run.Result.Tree.EventsFired
			}
		}
		r.cases = append(r.cases, obs...)
		r.wall += inFlight(obs)
	}
	g.rounds++
	return r
}

// inFlight is the length of the union of the cases' round trips: the
// time at least one of them was in flight.
func inFlight(obs []caseObs) time.Duration {
	iv := make([]caseObs, len(obs))
	copy(iv, obs)
	sort.Slice(iv, func(i, j int) bool { return iv[i].submit.Before(iv[j].submit) })
	var total time.Duration
	var end time.Time
	for _, o := range iv {
		start := o.submit
		if start.Before(end) {
			start = end
		}
		if o.seen.After(start) {
			total += o.seen.Sub(start)
			end = o.seen
		}
	}
	return total
}

// play submits one case and waits for it, checking the result against
// the case's solo fingerprint.
func (g *loadGen) play(ctx context.Context, c *scenario.Client, spec *scenario.CaseSpec) caseObs {
	o := caseObs{kind: spec.EffectiveKind(), submit: time.Now()}
	run, err := c.SubmitCase(ctx, g.suite, *spec)
	if err == nil {
		run, err = c.WaitRun(ctx, run.ID, pollEvery)
	}
	o.seen = time.Now()
	o.run, o.err = run, err
	o.ok = err == nil && run.State == scenario.StatePassed && run.Result != nil &&
		run.Result.Fingerprint == g.cs.want[caseKey(spec)]
	return o
}

// serviceWorkload drives the two service workloads.
type serviceWorkload struct {
	name  string
	start func(dir string, tr *tracer) (*stack, error)
	// rounds is the rounds a measuring run makes. A run is a fixed
	// amount of work, not a fixed time: the in-process scenario
	// runner keeps every run it has served, so its memory, and with it
	// each round's peak RSS, grows with the runs completed.
	rounds int
}

// setup computes the solo fingerprints and starts the service, the
// way every run begins; it is timed as setup_s.
func (w serviceWorkload) setup(ctx context.Context, o options, tr *tracer, tag string) (*stack, *loadGen, time.Duration, error) {
	start := time.Now()
	cs, err := newCaseSet(o.seed)
	if err != nil {
		return nil, nil, 0, err
	}
	dir, err := scratchDir(o, tag)
	if err != nil {
		return nil, nil, 0, err
	}
	st, err := w.start(dir, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	g, err := newLoadGen(ctx, st, cs, o.seed, tr)
	if err != nil {
		st.shutdown(context.Background()) //nolint:errcheck // already failing
		return nil, nil, 0, err
	}
	return st, g, time.Since(start), nil
}

// drive runs n rounds, fewer only if the run's context expires, and
// returns them with each round's peak RSS.
func drive(ctx context.Context, g *loadGen, n int) ([]svcRound, roundPeaks, error) {
	var rounds []svcRound
	var peaks roundPeaks
	for len(rounds) < n && ctx.Err() == nil {
		if err := peaks.start(); err != nil {
			return nil, nil, err
		}
		rounds = append(rounds, g.round(ctx))
		if err := peaks.end(); err != nil {
			return nil, nil, err
		}
	}
	return rounds, peaks, nil
}

// account counts every case as attempted and every case that did not
// pass with its solo fingerprint as failed, plus any fleet failover
// activity, which a fault-free run must not show.
func account(out *outcome, rounds []svcRound, st *stack) {
	for _, r := range rounds {
		for _, c := range r.cases {
			out.attempted++
			if !c.ok {
				msg := string(c.run.State)
				switch {
				case c.err != nil:
					msg = c.err.Error()
				case c.run.Error != nil:
					msg += ": " + c.run.Error.Error()
				case c.run.State == scenario.StatePassed:
					msg = "fingerprint differs from the solo run"
				}
				out.fail("%s case %s: %s", c.kind, c.run.ID, msg)
			}
		}
	}
	if st.fleetStats != nil {
		s := st.fleetStats()
		if n := s.Redispatches + s.LeaseExpiries + s.DuplicateCompletions; n > 0 {
			out.failed += int(n)
			out.problems = append(out.problems, fmt.Sprintf(
				"fleet failover in a fault-free run: %d redispatches, %d lease expiries, %d duplicate completions",
				s.Redispatches, s.LeaseExpiries, s.DuplicateCompletions))
		}
	}
}

func roundWalls(rounds []svcRound) []float64 {
	var out []float64
	for _, r := range rounds {
		out = append(out, r.wall.Seconds())
	}
	return out
}

func (w serviceWorkload) measure(ctx context.Context, o options, _ *recorded) (*outcome, error) {
	out := newOutcome()
	// Set up five times, keep the last stack, report the median. One
	// set-up is under a second, and on a 2-core VM single set-ups in
	// one run differed by up to 21% of their median; the median of
	// five drops such one-off stalls.
	var setups []float64
	var st *stack
	var g *loadGen
	for i := 0; i < 5; i++ {
		if st != nil {
			if err := st.shutdown(ctx); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		var err error
		st, g, d, err = w.setup(ctx, o, nil, strconv.Itoa(i))
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	rounds, peaks, err := drive(ctx, g, w.rounds)
	if serr := st.shutdown(ctx); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	account(out, rounds, st)

	var rtt, simRTT []time.Duration
	var rates, evRates []float64
	for _, r := range rounds {
		passed := 0
		for _, c := range r.cases {
			if !c.ok {
				continue
			}
			passed++
			if c.kind == "tree" {
				simRTT = append(simRTT, c.rtt())
			} else {
				rtt = append(rtt, c.rtt())
			}
		}
		rates = append(rates, float64(passed)/r.wall.Seconds())
		evRates = append(evRates, float64(r.events)/r.wall.Seconds())
	}
	e := out.e2e
	e["wall_s"] = median(roundWalls(rounds))
	e["setup_s"] = median(setups)
	e["sim_events_per_s"] = median(evRates)
	e["runs_per_s"] = median(rates)
	e["peak_rss_mib"] = median(peaks)
	var ok50, ok90, okS50, okS90 bool
	e["rtt_p50_ms"], ok50 = percentile(ms(rtt), 50)
	e["rtt_p90_ms"], ok90 = percentile(ms(rtt), 90)
	e["sim_rtt_p50_ms"], okS50 = percentile(ms(simRTT), 50)
	e["sim_rtt_p90_ms"], okS90 = percentile(ms(simRTT), 90)
	if !(ok50 && ok90 && okS50 && okS90) {
		out.fail("too few completions for p90: %d analytical, %d tree", len(rtt), len(simRTT))
	}
	out.samples = fmt.Sprintf("%d rounds, %d analytical and %d tree round trips", len(rounds), len(rtt), len(simRTT))
	return out, nil
}

// traced runs half the rounds untraced as the overhead reference,
// then the other half on a fresh, traced stack under the CPU
// profiler.
func (w serviceWorkload) traced(ctx context.Context, o options, _ *recorded) (*outcome, error) {
	out := newOutcome()
	half := (w.rounds + 1) / 2
	st, g, _, err := w.setup(ctx, o, nil, "ref")
	if err != nil {
		return nil, err
	}
	ref, _, err := drive(ctx, g, half)
	if serr := st.shutdown(ctx); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	account(out, ref, st)

	tr := &tracer{}
	st, g, _, err = w.setup(ctx, o, tr, "traced")
	if err != nil {
		return nil, err
	}
	prof, err := startCPUProfile()
	if err != nil {
		st.shutdown(ctx) //nolint:errcheck // already failing
		return nil, err
	}
	rt := readRuntime()
	rounds, _, err := drive(ctx, g, half)
	rtDelta := readRuntime().since(rt)
	cpu, perr := prof.stop()
	if serr := st.shutdown(ctx); err == nil {
		err = serr
	}
	if err == nil {
		err = perr
	}
	if err != nil {
		return nil, err
	}
	account(out, rounds, st)

	l := out.layer
	var passed []caseObs
	for _, r := range rounds {
		for _, c := range r.cases {
			if c.ok {
				passed = append(passed, c)
			}
		}
	}
	if len(passed) == 0 {
		return out, nil
	}
	n := float64(len(passed))
	var wait, lag []time.Duration
	exec := map[string][]time.Duration{}
	for _, c := range passed {
		wait = append(wait, c.run.StartedAt.Sub(c.run.SubmittedAt))
		exec[c.kind] = append(exec[c.kind], c.run.FinishedAt.Sub(c.run.StartedAt))
		lag = append(lag, c.seen.Sub(c.run.FinishedAt))
	}
	daemon := "scenario"
	if st.fleetStats != nil {
		daemon = "fleet"
		l["fleet.dispatch_wait_ms"] = median(ms(wait))
	} else {
		l["scenario.queue_wait_ms"] = median(ms(wait))
	}
	l[daemon+".start_ms"] = st.startMS
	l["scenario.exec_ms.figure"] = median(ms(exec["figure"]))
	l["scenario.exec_ms.tree"] = median(ms(exec["tree"]))
	l["scenario.notify_lag_ms"] = median(ms(lag))
	routes := []string{"submit", "get_run"}
	if st.fleetStats != nil {
		routes = append(routes, "lease", "complete")
	}
	for _, route := range routes {
		span := daemon + ".http." + route
		l[span+".busy_ms"] = sumMS(tr.durations(span)) / n
	}
	l["client.polls_per_run"] = float64(tr.count("client.poll")) / n
	if st.fleetStats != nil {
		hits, empty := tr.durations("fleet.lease"), tr.durations("fleet.lease_empty")
		calls := float64(len(hits) + len(empty))
		l["fleet.lease_calls_per_run"] = calls / n
		if calls > 0 {
			l["fleet.lease_hit_frac"] = float64(len(hits)) / calls
		}
		l["fleet.lease_ms"] = median(ms(hits))
		l["fleet.complete_ms"] = median(ms(tr.durations("fleet.complete")))
		l["fleet.heartbeats_per_run"] = float64(tr.count("fleet.heartbeat")) / n
		s := st.fleetStats()
		l["fleet.redispatches"] = float64(s.Redispatches)
		l["fleet.lease_expiries"] = float64(s.LeaseExpiries)
		l["fleet.duplicate_completions"] = float64(s.DuplicateCompletions)
	}
	if err := journalPerRun(l, st.journal, n); err != nil {
		return nil, err
	}
	if err := recordSpan(l, filepath.Dir(st.journal), tr); err != nil {
		return nil, err
	}
	for k, v := range rtDelta {
		if k != "runtime.gc_cpu_frac" {
			v /= float64(len(rounds))
		}
		l[k] = v
	}
	addCPU(l, cpu)
	refWall, wall := median(roundWalls(ref)), median(roundWalls(rounds))
	l["tracing.overhead_frac"] = wall/refWall - 1
	out.notes = append(out.notes,
		fmt.Sprintf("round wall untraced %.3fs traced %.3fs", refWall, wall),
		"top cpu:"+topLine(cpu),
		fmt.Sprintf("solo fingerprints checked: %d cases", len(g.cs.want)))
	out.tr = tr
	return out, nil
}

func sumMS(ds []time.Duration) float64 {
	var s float64
	for _, v := range ms(ds) {
		s += v
	}
	return s
}

// journalPerRun reads the service's journal back for its records and
// bytes per completed run.
func journalPerRun(l map[string]float64, path string, runs float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	lines := 0
	for _, b := range raw {
		if b == '\n' {
			lines++
		}
	}
	l["jsonl.records_per_run"] = float64(lines) / runs
	l["jsonl.bytes_per_run"] = float64(len(raw)) / runs
	return nil
}

// recordSpan times jsonl.Log.Record alone, on the filesystem the
// journals use, with entries shaped like a run's finished record.
func recordSpan(l map[string]float64, dir string, tr *tracer) error {
	log, _, err := jsonl.Open[scenario.Entry](filepath.Join(dir, "record-span.jsonl"))
	if err != nil {
		return err
	}
	var ds []time.Duration
	for i := 0; i < 200; i++ {
		e := scenario.Entry{Type: scenario.EntryFinished, Time: time.Now(), Suite: "suite-1",
			Run: fmt.Sprintf("run-%d", i), State: scenario.StatePassed,
			Fingerprint: "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"}
		start := time.Now()
		if err := log.Record(e); err != nil {
			log.Close()
			return err
		}
		end := time.Now()
		ds = append(ds, end.Sub(start))
		tr.add(span{Name: "jsonl.record", Start: start, End: end})
	}
	if err := log.Close(); err != nil {
		return err
	}
	l["jsonl.record_ms.p50"], _ = percentile(ms(ds), 50)
	l["jsonl.record_ms.p99"], _ = percentile(ms(ds), 99)
	return nil
}
