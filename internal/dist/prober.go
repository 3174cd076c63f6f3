package dist

import (
	"context"
	"sort"
	"sync"
	"time"
)

// ProberConfig tunes the background health prober and the slow-worker
// detector. The DownAfter/UpAfter pair is the hysteresis: a worker
// needs DownAfter consecutive probe failures to leave the dispatch set
// and UpAfter consecutive successes to re-enter it, so a flapping
// worker cannot oscillate the membership fingerprint (and with it the
// plan cache) faster than those thresholds allow.
type ProberConfig struct {
	// Interval between probe rounds in StartProber.
	Interval time.Duration
	// DownAfter consecutive probe failures mark an alive worker down.
	DownAfter int
	// UpAfter consecutive probe successes move a rejoining worker back
	// to healthy, and a degraded worker's service time must stay under
	// the slow threshold for UpAfter ticks to be restored.
	UpAfter int
	// SlowFactor: a worker is slow when its per-chunk EWMA exceeds
	// SlowFactor times the pool's lower-median EWMA.
	SlowFactor float64
	// SlowAfter consecutive slow ticks degrade a healthy worker.
	SlowAfter int
	// MinSamples completed streams before a worker's EWMA is trusted by
	// the slow detector at all.
	MinSamples int64
}

// DefaultProberConfig returns the production defaults: probe every 2s,
// 3 misses to go down, 2 hits to come back, degraded at 4x the pool
// median sustained for 3 ticks.
func DefaultProberConfig() ProberConfig {
	return ProberConfig{
		Interval:   2 * time.Second,
		DownAfter:  3,
		UpAfter:    2,
		SlowFactor: 4,
		SlowAfter:  3,
		MinSamples: 3,
	}
}

func (c ProberConfig) withDefaults() ProberConfig {
	d := DefaultProberConfig()
	if c.Interval <= 0 {
		c.Interval = d.Interval
	}
	if c.DownAfter <= 0 {
		c.DownAfter = d.DownAfter
	}
	if c.UpAfter <= 0 {
		c.UpAfter = d.UpAfter
	}
	if c.SlowFactor <= 0 {
		c.SlowFactor = d.SlowFactor
	}
	if c.SlowAfter <= 0 {
		c.SlowAfter = d.SlowAfter
	}
	if c.MinSamples <= 0 {
		c.MinSamples = d.MinSamples
	}
	return c
}

// SetProberConfig replaces the prober tuning (zero fields fall back to
// defaults). Takes effect on the next tick.
func (p *Pool) SetProberConfig(cfg ProberConfig) {
	p.mu.Lock()
	p.proberCfg = cfg.withDefaults()
	p.proberCfgSet = true
	p.mu.Unlock()
}

func (p *Pool) proberConfig() ProberConfig {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.proberCfgSet {
		p.proberCfg = DefaultProberConfig()
		p.proberCfgSet = true
	}
	return p.proberCfg
}

// ProbeTick runs one deterministic prober round: probe every member
// once, advance the hysteresis streaks, and apply any state
// transitions they complete. The membership fingerprint is invalidated
// only when the dispatch-eligible set actually changes — a probe that
// confirms the status quo, and the intermediate down→rejoining step,
// leave it (and therefore the plan cache) untouched. It returns the
// number of alive (dispatchable) workers after the round.
func (p *Pool) ProbeTick(ctx context.Context) int {
	cfg := p.proberConfig()

	names := p.memberNames()
	results := make(map[string]bool, len(names))
	for _, name := range names {
		results[name] = p.probe(ctx, name)
	}

	p.mu.Lock()
	defer p.mu.Unlock()

	// Liveness machine: consecutive-probe streaks drive
	// healthy/degraded → down and down → rejoining → healthy.
	for _, w := range p.workers {
		ok, probed := results[w.name]
		if !probed {
			continue // joined mid-round
		}
		if ok {
			w.failStreak = 0
			switch w.state {
			case stateDown:
				// First sign of life: start the rejoin count, but do not
				// readmit yet — and do not touch the fingerprint, since
				// down and rejoining are equally ineligible.
				w.state = stateRejoining
				w.okStreak = 1
			case stateRejoining:
				w.okStreak++
				if w.okStreak >= cfg.UpAfter {
					w.state = stateHealthy
					w.okStreak = 0
					// Fresh start for the slow detector: pre-outage
					// service times say nothing about the worker now.
					w.ewmaMs, w.samples = 0, 0
					w.slowStreak, w.fastStreak = 0, 0
					p.trans.Rejoined++
					p.fpValid = false
				}
			}
		} else {
			w.okStreak = 0
			switch w.state {
			case stateHealthy, stateDegraded:
				w.failStreak++
				if w.failStreak >= cfg.DownAfter {
					w.state = stateDown
					w.failStreak = 0
					p.trans.Down++
					p.fpValid = false
				}
			case stateRejoining:
				// Flapped again before readmission: back to down with
				// the rejoin count reset. No eligible-set change.
				w.state = stateDown
			}
		}
	}

	// Slow-worker detector: compare each healthy worker's per-chunk
	// EWMA against the pool's lower-median. Sustained excess degrades
	// (steering new plans away); sustained recovery restores.
	median := p.ewmaMedianLocked(cfg.MinSamples)
	for _, w := range p.workers {
		if median <= 0 {
			break
		}
		threshold := cfg.SlowFactor * median
		switch w.state {
		case stateHealthy:
			if w.samples >= cfg.MinSamples && w.ewmaMs > threshold {
				w.slowStreak++
				if w.slowStreak >= cfg.SlowAfter {
					w.state = stateDegraded
					w.slowStreak, w.fastStreak = 0, 0
					p.trans.Degraded++
					p.fpValid = false
				}
			} else {
				w.slowStreak = 0
			}
		case stateDegraded:
			if w.ewmaMs <= threshold {
				w.fastStreak++
				if w.fastStreak >= cfg.UpAfter {
					w.state = stateHealthy
					w.slowStreak, w.fastStreak = 0, 0
					p.trans.Restored++
					p.fpValid = false
				}
			} else {
				w.fastStreak = 0
			}
			// A degraded worker is steered away from, so its EWMA would
			// never see another sample; decay it toward the pool median
			// so recovery is possible without traffic.
			w.ewmaMs = 0.7*w.ewmaMs + 0.3*median
		}
	}

	alive := 0
	for _, w := range p.workers {
		if w.state.alive() {
			alive++
		}
	}
	return alive
}

// ewmaMedianLocked returns the lower-median per-chunk EWMA across
// workers with enough samples to trust (0 when fewer than two such
// workers exist — a lone meter has nothing to be slow relative to).
// Callers hold p.mu.
func (p *Pool) ewmaMedianLocked(minSamples int64) float64 {
	var vals []float64
	for _, w := range p.workers {
		if w.samples >= minSamples && w.state.alive() {
			vals = append(vals, w.ewmaMs)
		}
	}
	if len(vals) < 2 {
		return 0
	}
	sort.Float64s(vals)
	return vals[(len(vals)-1)/2]
}

// StartProber launches the background prober goroutine and returns its
// stop function. One prober per pool: a second call while the first is
// running returns a no-op stop. The prober is what lets a restarted
// worker rejoin — and a silently dead one drain — without any
// coordinator restart or manual /workers poke.
func (p *Pool) StartProber(ctx context.Context) (stop func()) {
	p.mu.Lock()
	if p.probing {
		p.mu.Unlock()
		return func() {}
	}
	p.probing = true
	p.mu.Unlock()

	done := make(chan struct{})
	go func() {
		t := time.NewTicker(p.proberConfig().Interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-done:
				return
			case <-t.C:
				p.ProbeTick(ctx)
			}
		}
	}()

	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			p.mu.Lock()
			p.probing = false
			p.mu.Unlock()
		})
	}
}
