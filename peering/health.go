package peering

import (
	"sort"
	"time"

	"repro/internal/guard"
)

// GuardConfig configures the platform's overload watchdog: a single
// goroutine that samples every PoP's pressure signals and drives its
// guard.Health state machine. State transitions apply the shedding
// ladder — Degraded drops telemetry emission (the cheapest work to
// lose); Shedding additionally tears down non-established experiment
// sessions and treats new experiment announcements as withdrawals
// (RFC 7606 style) until pressure recedes.
type GuardConfig struct {
	// Health holds the per-PoP thresholds and hysteresis. Its OnChange
	// hook, if set, is chained after the platform's own shed actions.
	Health guard.HealthConfig
	// SampleInterval is the watchdog cadence (default 250ms).
	SampleInterval time.Duration
}

// DefaultGuardConfig returns production-shaped watchdog thresholds:
// degraded at sustained thousands of updates/sec or a backed-up
// monitoring queue, shedding an order of magnitude above that.
func DefaultGuardConfig() *GuardConfig {
	return &GuardConfig{
		Health: guard.HealthConfig{
			Degraded: guard.Limits{
				UpdateRate: 2_000,
				QueueDepth: 256,
				LoopLag:    250 * time.Millisecond,
			},
			Shedding: guard.Limits{
				UpdateRate: 20_000,
				QueueDepth: 1024,
				LoopLag:    time.Second,
			},
			RecoverSamples: 3,
		},
		SampleInterval: 250 * time.Millisecond,
	}
}

// applyHealthState executes the shedding ladder for a PoP entering
// state s. Transitions are monotone per call: entering Shedding turns
// on everything Degraded sheds, and recovery to Healthy re-enables all.
func (p *Platform) applyHealthState(pop *PoP, s guard.State) {
	r := pop.Router
	switch s {
	case guard.Healthy:
		r.SetTelemetryShed(false)
		r.SetAnnouncementShed(false)
	case guard.Degraded:
		r.SetTelemetryShed(true)
		r.SetAnnouncementShed(false)
	case guard.Shedding:
		r.SetTelemetryShed(true)
		r.SetAnnouncementShed(true)
		if n := r.ShedNonEstablishedExperiments(); n > 0 && p.cfg.Logf != nil {
			p.cfg.Logf("guard[%s]: shed %d non-established experiment sessions", pop.Name, n)
		}
	}
	p.sinkMu.RLock()
	sink := p.healthSink
	p.sinkMu.RUnlock()
	if sink != nil {
		sink(pop.Name, s)
	}
}

// runGuard is the watchdog loop. LoopLag is measured as the drift of
// the tick itself: a starved scheduler shows up as late ticks, the
// closest in-process analogue to control-plane event-loop lag.
func (p *Platform) runGuard(interval time.Duration) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	expected := time.Now().Add(interval)
	for {
		select {
		case <-p.guardStop:
			return
		case now := <-tick.C:
			lag := now.Sub(expected)
			if lag < 0 {
				lag = 0
			}
			expected = now.Add(interval)
			p.sampleGuard(now, lag)
		}
	}
}

// sampleGuard takes one pressure sample per PoP and feeds its health
// state machine.
func (p *Platform) sampleGuard(now time.Time, lag time.Duration) {
	p.mu.Lock()
	pops := make([]*PoP, 0, len(p.pops))
	for _, pop := range p.pops {
		pops = append(pops, pop)
	}
	p.mu.Unlock()

	for _, pop := range pops {
		if pop.health == nil {
			continue
		}
		updates := pop.Router.UpdatesProcessed()
		pop.mu.Lock()
		prev, prevAt := pop.guardPrev, pop.guardPrevAt
		pop.guardPrev, pop.guardPrevAt = updates, now
		pop.mu.Unlock()
		rate := 0.0
		if !prevAt.IsZero() {
			if dt := now.Sub(prevAt).Seconds(); dt > 0 {
				rate = float64(updates-prev) / dt
			}
		}
		pr := guard.Pressure{
			UpdateRate: rate,
			RIBPaths:   pop.Router.RouteCount() + pop.Router.ExperimentRoutes().PathCount(),
			QueueDepth: p.monitor.QueueLen(),
			LoopLag:    lag,
		}
		pop.mu.Lock()
		pop.lastPressure = pr
		pop.mu.Unlock()
		pop.health.Observe(pr)
	}
}

// StopGuard stops the watchdog goroutine. Idempotent; a no-op on
// platforms built without a GuardConfig.
func (p *Platform) StopGuard() {
	if p.guardStop == nil {
		return
	}
	p.guardOnce.Do(func() { close(p.guardStop) })
}

// PoPHealth returns the watchdog state of the named PoP. Unknown PoPs
// and guard-less platforms report Healthy.
func (p *Platform) PoPHealth(name string) guard.State {
	pop := p.PoP(name)
	if pop == nil || pop.health == nil {
		return guard.Healthy
	}
	return pop.health.State()
}

// PoPHealthStatus is one row of a platform health report.
type PoPHealthStatus struct {
	PoP      string
	State    guard.State
	Pressure guard.Pressure
}

// HealthReport returns the current state and last pressure sample of
// every PoP, sorted by name. Empty without a GuardConfig.
func (p *Platform) HealthReport() []PoPHealthStatus {
	p.mu.Lock()
	pops := make([]*PoP, 0, len(p.pops))
	for _, pop := range p.pops {
		pops = append(pops, pop)
	}
	p.mu.Unlock()

	out := make([]PoPHealthStatus, 0, len(pops))
	for _, pop := range pops {
		if pop.health == nil {
			continue
		}
		pop.mu.Lock()
		pr := pop.lastPressure
		pop.mu.Unlock()
		out = append(out, PoPHealthStatus{PoP: pop.Name, State: pop.health.State(), Pressure: pr})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PoP < out[j].PoP })
	return out
}
