package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/netsim"
	"repro/internal/roaming"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// ValidationConfig is a Fig. 6 model-validation point: a string
// topology with one continuous attacker, basic honeypot
// back-propagation, and a (m, p, h) setting.
type ValidationConfig struct {
	// Hops is the attacker's router-hop distance h (string length).
	Hops int
	// EpochLen is m in seconds.
	EpochLen float64
	// HoneypotProb is p; it is realized as a pool of PoolSize servers
	// with k = round((1-p)·PoolSize) active.
	HoneypotProb float64
	// PoolSize is N (default 10, giving p granularity of 0.1).
	PoolSize int
	// RatePPS is the attack rate in packets/s (the paper's 0.1 Mb/s
	// ≈ 25 pkt/s at 500 B).
	RatePPS float64
	// PacketSize in bytes.
	PacketSize int
	// Runs is the number of independent runs averaged (the paper uses
	// 10).
	Runs int
	// Seed bases the per-run seeds.
	Seed int64
	// MaxEpochs caps each run's length in epochs (safety).
	MaxEpochs int
	// Context, when non-nil, installs the same cooperative
	// cancellation checkpoint as TreeConfig.Context in every run of
	// the sweep.
	Context context.Context `json:"-"`
}

// DefaultValidationConfig mirrors the Fig. 6 setup.
func DefaultValidationConfig() ValidationConfig {
	return ValidationConfig{
		Hops:         10,
		EpochLen:     100,
		HoneypotProb: 0.3,
		PoolSize:     10,
		RatePPS:      25,
		PacketSize:   500,
		Runs:         10,
		Seed:         1,
		MaxEpochs:    400,
	}
}

// ValidationResult is the measured-vs-model outcome for one point.
type ValidationResult struct {
	Config ValidationConfig
	// MeanCT is the measured average capture time in seconds.
	MeanCT float64
	// StdCT is the sample standard deviation.
	StdCT float64
	// Model is the analytical E[CT] for the same parameters: Eq. (3)
	// for RunValidation, Eq. (4) for RunValidationProgressive.
	Model analysis.Result
	// Captured counts runs in which the attacker was captured.
	Captured int
}

// RunValidation measures average capture time on the string topology
// and evaluates Eq. (3) for comparison.
func RunValidation(cfg ValidationConfig) (*ValidationResult, error) {
	return runValidation(cfg, core.Config{}, "validate", 1000, analysis.BasicContinuous)
}

// RunValidationProgressive is the Eq. (4) analogue of RunValidation:
// progressive back-propagation against a continuous attacker whose
// rate is low enough that a single epoch cannot cover the whole path,
// so capture time scales with h (unlike basic's epoch-dominated
// bound).
func RunValidationProgressive(cfg ValidationConfig) (*ValidationResult, error) {
	return runValidation(cfg, core.Config{Progressive: true, Rho: 8}, "validate-prog", 4000, analysis.ProgressiveContinuous)
}

// runValidation averages cfg.Runs string-topology capture runs under
// the defense config ccfg and evaluates model for the same parameters.
// label and rngMul keep the sweeps' chain seeds and attacker streams
// apart (see stringCaptureRun).
func runValidation(cfg ValidationConfig, ccfg core.Config, label string, rngMul int64, model func(analysis.Params) analysis.Result) (*ValidationResult, error) {
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 10
	}
	if cfg.MaxEpochs <= 0 {
		cfg.MaxEpochs = 400
	}
	// k = round((1-p)·N), leaving at least one active server and one
	// honeypot.
	k := min(max(int(float64(cfg.PoolSize)*(1-cfg.HoneypotProb)+0.5), 1), cfg.PoolSize-1)
	if cfg.Hops < 1 || cfg.EpochLen <= 0 || cfg.RatePPS <= 0 || cfg.Runs < 1 {
		return nil, fmt.Errorf("experiments: bad validation config %+v", cfg)
	}
	var cts []float64
	for run := 0; run < cfg.Runs; run++ {
		ct, ok, err := stringCaptureRun(cfg, k, run, ccfg, label, rngMul)
		if err != nil {
			return nil, err
		}
		if ok {
			cts = append(cts, ct)
		}
	}
	return &ValidationResult{
		Config: cfg, Captured: len(cts), MeanCT: mean(cts), StdCT: std(cts),
		Model: model(analysis.Params{
			M:   cfg.EpochLen,
			P:   float64(cfg.PoolSize-k) / float64(cfg.PoolSize),
			R:   cfg.RatePPS,
			H:   cfg.Hops + 1, // leaf link + string routers
			Tau: 0.01,
		}),
	}, nil
}

// stringCaptureRun is one validation run: a continuous attacker at the
// first leaf of a cfg.Hops-router string floods server 0 with spoofed
// sources, starting at a random phase within the first epoch, against
// HBP over a k-of-N pool. The pool's chain seed is
// "<label>-<seed>-<run>" and the attacker's RNG seed is
// cfg.Seed·rngMul + run. It returns the delay from the attack start to
// the first capture.
func stringCaptureRun(cfg ValidationConfig, k, run int, ccfg core.Config, label string, rngMul int64) (float64, bool, error) {
	sim := des.New()
	tr := topology.NewString(sim, cfg.Hops, cfg.PoolSize,
		topology.LinkClass{Bandwidth: 1e7, Delay: 0.002})
	st, err := newHBP(tr.Net, tr.Servers, tr.Servers, roaming.Config{
		N: cfg.PoolSize, K: k, EpochLen: cfg.EpochLen, Guard: 0.2,
		Epochs:    cfg.MaxEpochs,
		ChainSeed: []byte(fmt.Sprintf("%s-%d-%d", label, cfg.Seed, run)),
	}, tr.IsHost, ccfg)
	if err != nil {
		return 0, false, err
	}
	st.def.DeployAll(st.agents)

	target := tr.Servers[0].ID
	rng := des.NewRNG(cfg.Seed*rngMul + int64(run))
	atk := &traffic.CBR{
		Node: tr.Leaves[0],
		Rate: cfg.RatePPS * float64(cfg.PacketSize) * 8,
		Size: cfg.PacketSize,
		Dest: func() netsim.NodeID { return target },
		Source: func() netsim.NodeID {
			return netsim.NodeID(rng.Intn(4096) + 10000)
		},
	}
	fc := &firstCapture{sim: sim}
	st.def.OnCapture = func(c core.Capture) { fc.hit(c.Time) }
	st.pool.Start()
	// Randomize the attack phase within one epoch so the average is
	// not locked to the schedule.
	return fc.runFrom(cfg.Context, rng.Float64()*cfg.EpochLen, float64(cfg.MaxEpochs)*cfg.EpochLen, atk.Start)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := mean(xs)
	s := 0.0
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)-1))
}
