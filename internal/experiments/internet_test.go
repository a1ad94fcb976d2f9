package experiments

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/topology"
)

// smallInternet shrinks a sweep point to test scale: 50 zombies among
// 2000 hosts across 100 ASes, 4 cluster parts on 2 shards.
func smallInternet() InternetConfig {
	cfg := InternetConfigFor(50, 1)
	cfg.Topology.Hosts = 2000
	cfg.Topology.Graph.ASes = 100
	cfg.Topology.Parts = 4
	cfg.Shards = 2
	return cfg
}

func TestInternetCaptures(t *testing.T) {
	res, err := RunInternet(smallInternet())
	if err != nil {
		t.Fatal(err)
	}
	if res.Captures != 50 {
		t.Fatalf("captured %d of 50 zombies", res.Captures)
	}
	if len(res.CaptureTimes) != 50 {
		t.Fatalf("%d capture times for %d captures", len(res.CaptureTimes), res.Captures)
	}
	for i, ct := range res.CaptureTimes {
		if ct < 0 || ct > res.Config.AttackEnd-res.Config.AttackStart {
			t.Fatalf("capture %d at %v relative to attack start, outside the attack window", i, ct)
		}
		if i > 0 && ct < res.CaptureTimes[i-1] {
			t.Fatalf("capture times not sorted at %d: %v < %v", i, ct, res.CaptureTimes[i-1])
		}
	}
	// The attack must visibly dent legitimate goodput before the
	// frontier marches down and captures recover it; both means stay in
	// a sane utilization band.
	if res.MeanBefore <= res.MeanDuringAttack {
		t.Fatalf("attack did not degrade goodput: before %v, during %v", res.MeanBefore, res.MeanDuringAttack)
	}
	if res.MeanBefore < 0.3 || res.MeanBefore > 1.0 {
		t.Fatalf("pre-attack goodput %v outside sane band", res.MeanBefore)
	}
	if res.MeanDuringAttack < 0.1 {
		t.Fatalf("goodput collapsed to %v: defense ineffective", res.MeanDuringAttack)
	}
	if res.AttackSent == 0 || res.LegitSent == 0 {
		t.Fatalf("macro flows idle: attack %d, legit %d", res.AttackSent, res.LegitSent)
	}
	if res.CtrlMessages == 0 || res.PeakState == 0 {
		t.Fatalf("defense idle: ctrl %d, peak state %d", res.CtrlMessages, res.PeakState)
	}
	if !res.Leak.Clean() {
		t.Fatalf("teardown leaked: %+v", res.Leak)
	}
}

// internetPinnedDigest / internetPinnedEvents pin the 5-part
// smallInternet reference run across commits (see forestPinnedDigest).
const (
	internetPinnedDigest = "fb910b7fb8641836a12069e664a74d35df59814d6e4c7a6216cfe3971795813b"
	internetPinnedEvents = 612316
)

func TestInternetFingerprintAcrossShards(t *testing.T) {
	cfg := smallInternet()
	cfg.Topology.Parts = 5 // parts coprime to both widths
	var base *InternetResult
	for _, shards := range []int{1, 4} {
		cfg.Shards = shards
		res, err := RunInternet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			pinDigest(t, res.Fingerprint(), res.EventsFired, internetPinnedDigest, internetPinnedEvents)
			base = res
			continue
		}
		if res.Fingerprint() != base.Fingerprint() {
			t.Fatalf("fingerprint diverged at shards=%d:\n%s\nvs shards=1:\n%s",
				shards, res.Fingerprint(), base.Fingerprint())
		}
		if res.EventsFired != base.EventsFired {
			t.Fatalf("event count diverged at shards=%d: %d vs %d", shards, res.EventsFired, base.EventsFired)
		}
	}
}

func TestInternetConfigValidate(t *testing.T) {
	bad := []func(*InternetConfig){
		func(c *InternetConfig) { c.Zombies = c.Topology.Hosts + 1 },
		func(c *InternetConfig) { c.AttackRate = 0 },
		func(c *InternetConfig) { c.PacketSize = 0 },
		func(c *InternetConfig) { c.AttackStart = c.AttackEnd },
		func(c *InternetConfig) { c.PoolK = c.Topology.Servers },
		func(c *InternetConfig) { c.Shards = -1 },
	}
	for i, mutate := range bad {
		cfg := smallInternet()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("mutation %d passed validation", i)
		}
	}
	cfg := smallInternet()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("baseline config invalid: %v", err)
	}
}

// vmHWM reads the process peak resident set from /proc in bytes.
func vmHWM(t *testing.T) int64 {
	t.Helper()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc/self/status: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), "VmHWM:") {
			continue
		}
		fields := strings.Fields(sc.Text())
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			t.Fatalf("parse VmHWM from %q: %v", sc.Text(), err)
		}
		return kb << 10
	}
	t.Skip("VmHWM not present")
	return 0
}

// TestInternetScaleSmoke constructs the full 10⁶-endpoint sweep point
// — a million hosts across 20000 power-law ASes — computes routes,
// and asserts the whole process peaks under 2 GiB. Gated behind
// HBP_SCALE_SMOKE=1: it allocates ~1.5 GiB and takes tens of seconds.
func TestInternetScaleSmoke(t *testing.T) {
	if os.Getenv("HBP_SCALE_SMOKE") != "1" {
		t.Skip("set HBP_SCALE_SMOKE=1 to run the 10⁶-endpoint build")
	}
	cfg := InternetConfigFor(500000, 1)
	if cfg.Topology.Hosts != 1000000 {
		t.Fatalf("sweep point sized %d hosts, want 10⁶", cfg.Topology.Hosts)
	}
	ss := des.NewSharded(cfg.Seed, cfg.Shards)
	it := topology.BuildInternet(ss, cfg.Topology)
	if kind := it.Cluster.RouteKind(); kind != "compressed" {
		t.Fatalf("10⁶-node build routed %q, want compressed", kind)
	}
	nodes := len(it.Cluster.Nodes())
	perNode := float64(it.Cluster.RouteBytes()) / float64(nodes)
	if perNode >= 64 {
		t.Fatalf("routing state %.1f B/node over %d nodes, want < 64", perNode, nodes)
	}
	// Exercise a route end to end so the assertion covers a usable
	// table, not just a constructed one.
	if hops := it.Cluster.PathHops(it.Hosts[len(it.Hosts)-1].ID, it.Servers[0].ID); hops < 3 {
		t.Fatalf("host→server path %d hops", hops)
	}
	const limit = 2 << 30
	if peak := vmHWM(t); peak >= limit {
		t.Fatalf("peak RSS %d bytes (%.2f GiB) ≥ 2 GiB budget", peak, float64(peak)/(1<<30))
	}
}
