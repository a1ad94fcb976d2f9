// Package benchhot holds the simulator hot-path benchmark bodies.
// They are ordinary functions taking *testing.B so the same code backs
// both the root-package BenchmarkHotPath* targets (`go test -bench
// HotPath`) and cmd/benchhotpath, which runs them through
// testing.Benchmark and writes BENCH_hotpath.json.
//
// The three micro targets isolate the layers of the zero-allocation
// refactor — event scheduling (closure and typed), per-packet
// forwarding — and Fig8 is the end-to-end scenario the acceptance
// numbers are quoted on.
package benchhot

import (
	"context"
	"testing"

	"repro/internal/des"
	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/topology"
)

// Fig8Config is the reduced-scale Fig. 8 HBP scenario used by the
// root BenchmarkFig8 (kept identical so numbers stay comparable).
// Exported so the hot-path root guard test can run the very scenario
// the benchmark measures.
func Fig8Config() experiments.TreeConfig {
	cfg := experiments.DefaultTreeConfig()
	cfg.Topology.Leaves = 40
	cfg.NumAttackers = 8
	cfg.AttackRate = 0.4e6
	cfg.Duration = 50
	cfg.AttackEnd = 45
	cfg.Defense = experiments.HBP
	return cfg
}

// Fig8 runs the throughput-over-time scenario for HBP once per
// iteration, reporting allocations and the simulator's events/sec.
func Fig8(b *testing.B) {
	cfg := Fig8Config()
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		r, err := experiments.RunTree(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.Throughput.Len() == 0 {
			b.Fatal("no samples")
		}
		events += r.EventsFired
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// Hierarchical runs the unified two-level scenario once per
// iteration: a 4-transit AS chain whose intra-AS phase is the
// embedded per-stub-AS router-level traceback on the same clock
// (DESIGN.md, "Plane unification"). It tracks the cost of plane
// unification end to end — AS-graph walk, embedded tree construction,
// router-level capture, teardown.
func Hierarchical(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunHierarchical(context.Background(), 4, true, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if !r.Captured {
			b.Fatal("attacker escaped")
		}
	}
}

// ForestConfig is the reduced-scale sharded forest scenario: 8
// independent HBP trees joined in a cross-traffic ring, one tree per
// cluster part, placed round-robin over the requested shard count.
// Exported so the hot-path root guard test can run the very scenario
// the benchmark measures.
func ForestConfig(shards int) experiments.ForestConfig {
	cfg := experiments.DefaultForestConfig()
	cfg.Parts = 8
	cfg.LeavesPerPart = 16
	cfg.AttackersPerPart = 3
	cfg.Duration = 20
	cfg.AttackStart = 2
	cfg.AttackEnd = 18
	cfg.Shards = shards
	return cfg
}

// Forest returns a benchmark body running the sharded forest at the
// given engine width. The 1-shard and 8-shard entries bracket the
// parallel engine: identical work (the fingerprint invariant pins the
// event schedule bit-for-bit), so the ns/op ratio is pure engine
// speedup — 1x on a single-core host, approaching the core count on
// real parallel hardware.
func Forest(shards int) func(*testing.B) {
	return func(b *testing.B) {
		cfg := ForestConfig(shards)
		b.ReportAllocs()
		var events uint64
		for i := 0; i < b.N; i++ {
			cfg.Seed = int64(i + 1)
			r, err := experiments.RunShardedForest(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if r.Captures == 0 {
				b.Fatal("no captures")
			}
			if !r.Leak.Clean() {
				b.Fatalf("leaked: %+v", r.Leak)
			}
			events += r.EventsFired
		}
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	}
}

// InternetSmallConfig is the reduced internet-scale sweep point used
// by BenchmarkHotPathInternet: 50 zombies among 2000 hosts across 100
// power-law ASes, 4 cluster parts on 2 shards, with the compressed
// route table forced on (the topology sits below the auto-compress
// threshold at this scale). Exported so the hot-path root guard test
// can run the very scenario the benchmark measures.
func InternetSmallConfig() experiments.InternetConfig {
	cfg := experiments.InternetConfigFor(50, 1)
	cfg.Topology.Hosts = 2000
	cfg.Topology.Graph.ASes = 100
	cfg.Topology.Parts = 4
	cfg.Shards = 2
	cfg.Topology.Routing = netsim.RouteCompressed
	return cfg
}

// Internet runs the reduced internet-scale scenario end to end once
// per iteration: flow-level macro agents (traffic.macroTick) expand
// packets at armed routers (Node.Inject) over a compressed route
// table (treeRoutes.NextHop), the honeypot frontier marches to the
// access routers, and every zombie is captured.
func Internet(b *testing.B) {
	cfg := InternetSmallConfig()
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		r, err := experiments.RunInternet(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.Captures == 0 {
			b.Fatal("no captures")
		}
		if !r.Leak.Clean() {
			b.Fatalf("leaked: %+v", r.Leak)
		}
		events += r.EventsFired
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// InternetRoute measures the compressed next-hop lookup at
// 10⁵-endpoint scale. The power-law topology is built once outside
// the timer; each iteration walks a complete host→server route
// through treeRoutes.NextHop. The routing-state footprint rides along
// as a bytes-per-node gauge so BENCH_hotpath.json tracks the memory
// claim next to the lookup cost.
func InternetRoute(b *testing.B) {
	cfg := experiments.InternetConfigFor(50000, 1)
	ss := des.NewSharded(cfg.Seed, 1)
	it := topology.BuildInternet(ss, cfg.Topology)
	cl := it.Cluster
	if kind := cl.RouteKind(); kind != "compressed" {
		b.Fatalf("route table is %q, want compressed", kind)
	}
	dst := it.Servers[0].ID
	hops := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := cl.PathHops(it.Hosts[i%len(it.Hosts)].ID, dst)
		if h < 3 {
			b.Fatalf("host route resolved in %d hops", h)
		}
		hops += h
	}
	b.StopTimer()
	b.ReportMetric(float64(hops)/float64(b.N), "hops/op")
	b.ReportMetric(float64(cl.RouteBytes())/float64(len(cl.Nodes())), "route-B/node")
}

// Forwarding measures steady-state per-packet cost over a 10-hop
// path using pooled packets (20 events per op: serialization +
// propagation at each hop).
func Forwarding(b *testing.B) {
	sim := des.New()
	tr := topology.NewString(sim, 10, 1, topology.LinkClass{Bandwidth: 1e9, Delay: 0.0001})
	received := 0
	tr.Servers[0].Handler = func(p *netsim.Packet, in *netsim.Port) { received++ }
	host := tr.Leaves[0]
	dst := tr.Servers[0].ID
	send := func() {
		p := host.NewPacket()
		*p = netsim.Packet{Src: host.ID, TrueSrc: host.ID, Dst: dst, Size: 500, Type: netsim.Data}
		host.Send(p)
		if err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ { // warm the event slab and packet pool
		send()
	}
	received = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
	if received != b.N {
		b.Fatalf("received %d of %d", received, b.N)
	}
}

// EventQueue measures raw discrete-event throughput with closure
// handlers (a single func value rescheduled, the pre-refactor idiom).
func EventQueue(b *testing.B) {
	sim := des.New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			sim.After(0.001, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	sim.At(0, tick)
	if err := sim.Run(); err != nil {
		b.Fatal(err)
	}
}

type typedState struct {
	sim   *des.Simulator
	n     int
	limit int
}

func typedTick(a, _ any, _ uint8) {
	st := a.(*typedState)
	st.n++
	if st.n < st.limit {
		st.sim.ScheduleTyped(st.sim.Now()+0.001, typedTick, st, nil, 0)
	}
}

// TypedEvent measures the typed-event path the link layer uses:
// a package-level dispatch function with pointer operands, no
// closures captured per event.
func TypedEvent(b *testing.B) {
	sim := des.New()
	st := &typedState{sim: sim, limit: b.N}
	b.ReportAllocs()
	b.ResetTimer()
	sim.ScheduleTyped(0, typedTick, st, nil, 0)
	if err := sim.Run(); err != nil {
		b.Fatal(err)
	}
	if st.n != b.N {
		b.Fatalf("fired %d of %d ticks", st.n, b.N)
	}
}
