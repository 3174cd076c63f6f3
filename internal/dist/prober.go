package dist

import (
	"context"
	"sync"
	"time"
)

// The prober's hysteresis: a worker needs downAfter consecutive probe
// failures to leave the dispatch set and upAfter consecutive successes
// to re-enter it, so a flapping worker cannot oscillate the membership
// fingerprint (and with it the plan cache) faster than that.
const (
	downAfter = 3
	upAfter   = 2
)

// ProberConfig tunes the background health prober.
type ProberConfig struct {
	// Interval between probe rounds in StartProber.
	Interval time.Duration
}

// DefaultProberConfig returns the production default: probe every 2s.
func DefaultProberConfig() ProberConfig {
	return ProberConfig{Interval: 2 * time.Second}
}

// SetProberConfig replaces the prober tuning (a zero Interval falls
// back to the default). Takes effect when the prober starts.
func (p *Pool) SetProberConfig(cfg ProberConfig) {
	if cfg.Interval <= 0 {
		cfg = DefaultProberConfig()
	}
	p.mu.Lock()
	p.proberCfg = cfg
	p.mu.Unlock()
}

func (p *Pool) proberConfig() ProberConfig {
	p.mu.Lock()
	defer p.mu.Unlock()
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
	names := p.memberNames()
	results := make(map[string]bool, len(names))
	for _, name := range names {
		results[name] = p.probe(ctx, name)
	}

	p.mu.Lock()
	defer p.mu.Unlock()

	// Liveness machine: consecutive-probe streaks drive healthy → down
	// and down → rejoining → healthy.
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
				if w.okStreak >= upAfter {
					w.state = stateHealthy
					w.okStreak = 0
					p.trans.Rejoined++
					p.fpValid = false
				}
			}
		} else {
			w.okStreak = 0
			switch w.state {
			case stateHealthy:
				w.failStreak++
				if w.failStreak >= downAfter {
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

	alive := 0
	for _, w := range p.workers {
		if w.state.alive() {
			alive++
		}
	}
	return alive
}

// StartProber launches the background prober goroutine and returns its
// stop function. One prober per pool: a second call while the first is
// running returns a no-op stop. The prober is what lets a restarted
// worker rejoin — and a silently dead one drain — without any
// coordinator restart.
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
