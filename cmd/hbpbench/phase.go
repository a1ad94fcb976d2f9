package main

import (
	"context"
	"errors"
	"sync"
	"time"
)

// stampCtx is the context a simulation driver receives. Both drivers
// poll Context.Err at their cancellation checkpoints (RunTree every
// 1024 events, RunInternet at every window barrier from before the
// first event) and stay bit-identical with a context installed, so
// each poll is a host-time stamp the benchmark reads from outside:
// the first ends set-up, the last ends the simulation.
type stampCtx struct {
	context.Context

	mu     sync.Mutex
	stamps []time.Time
	// atFirst, when set, runs once right after the first stamp; the
	// traced run switches CPU profiles there. Its duration is
	// recorded as pause and excluded from the simulate phase.
	atFirst func()
	pause   time.Duration
}

func newStampCtx(atFirst func()) *stampCtx {
	return &stampCtx{Context: context.Background(), stamps: make([]time.Time, 0, 8192), atFirst: atFirst}
}

// Err stamps the host time and never cancels.
func (c *stampCtx) Err() error {
	now := time.Now()
	c.mu.Lock()
	c.stamps = append(c.stamps, now)
	first := len(c.stamps) == 1
	c.mu.Unlock()
	if first && c.atFirst != nil {
		c.atFirst()
		c.mu.Lock()
		c.pause = time.Since(now)
		c.mu.Unlock()
	}
	return nil
}

// phases is one driver call split at its checkpoints.
type phases struct {
	Setup, Sim, Teardown time.Duration
	// Checkpoints counts the polls; Gaps are the host times between
	// consecutive polls during the simulation (the latency with which
	// a cancel would be seen).
	Checkpoints int
	Gaps        []time.Duration
}

// splitPhases splits the call [start, end] at its checkpoint stamps.
// The pause taken after the first stamp is charged to no phase.
func splitPhases(start time.Time, stamps []time.Time, pause time.Duration, end time.Time) (phases, error) {
	if len(stamps) == 0 {
		return phases{}, errors.New("driver returned without polling its context")
	}
	first, last := stamps[0], stamps[len(stamps)-1]
	if first.Before(start) || end.Before(last) {
		return phases{}, errors.New("checkpoint stamps lie outside the driver call")
	}
	p := phases{
		Setup:       first.Sub(start),
		Sim:         last.Sub(first),
		Teardown:    end.Sub(last),
		Checkpoints: len(stamps),
	}
	if len(stamps) > 1 {
		p.Sim -= pause
		p.Gaps = make([]time.Duration, 0, len(stamps)-1)
		for i := 1; i < len(stamps); i++ {
			g := stamps[i].Sub(stamps[i-1])
			if i == 1 {
				g -= pause
			}
			p.Gaps = append(p.Gaps, g)
		}
	}
	return p, nil
}

// split finishes a call that started at start and returned at end.
func (c *stampCtx) split(start, end time.Time) (phases, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return splitPhases(start, c.stamps, c.pause, end)
}
