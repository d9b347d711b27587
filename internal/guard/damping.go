// Package guard is the platform's convergence-safety and
// overload-protection layer. It implements RFC 2439 route-flap damping
// (per-(peer, prefix) penalties with exponential decay and
// suppress/reuse thresholds) and the healthy → degraded → shedding
// health-state machine the peering watchdog drives per PoP. Both sit
// on every update path: damping keeps one flapping route from churning
// real neighbors, the health machine keeps one misbehaving experiment
// from melting a PoP's control plane.
package guard

import (
	"math"
	"net/netip"
	"sync"
	"time"
)

// RFC 2439 suggests these figure-of-merit defaults (penalty per flap
// and the classic Cisco/Juniper suppress/reuse split). The half-life
// here is scaled to the simulator's time base — production BGP uses
// 15 minutes, the in-memory platform converges in milliseconds.
const (
	DefaultFlapPenalty       = 1000.0
	DefaultSuppressThreshold = 3000.0
	DefaultReuseThreshold    = 750.0
	DefaultHalfLife          = 15 * time.Second
)

// DampingConfig parameterizes a Damper. The zero value of every field
// falls back to the RFC 2439 defaults above.
type DampingConfig struct {
	// FlapPenalty is added to a route's figure of merit on every flap
	// (withdrawal of a known route, or re-advertisement).
	FlapPenalty float64
	// SuppressThreshold suppresses a route once its penalty reaches it.
	SuppressThreshold float64
	// ReuseThreshold releases a suppressed route once decay brings the
	// penalty back under it. Must be below SuppressThreshold.
	ReuseThreshold float64
	// HalfLife is the penalty's exponential-decay half-life.
	HalfLife time.Duration
	// MaxPenalty caps the figure of merit so a long storm cannot push
	// the reuse time out indefinitely (RFC 2439 §4.2 ceiling). Defaults
	// to 4× the suppress threshold.
	MaxPenalty float64
	// OnReuse, when set, is called (without locks held) whenever a
	// suppressed route's penalty decays below the reuse threshold via
	// the reuse timer, so the owner can re-export the withheld route.
	OnReuse func(Key)
	// Now overrides the clock, for tests.
	Now func() time.Time
}

func (c DampingConfig) withDefaults() DampingConfig {
	if c.FlapPenalty <= 0 {
		c.FlapPenalty = DefaultFlapPenalty
	}
	if c.SuppressThreshold <= 0 {
		c.SuppressThreshold = DefaultSuppressThreshold
	}
	if c.ReuseThreshold <= 0 {
		c.ReuseThreshold = DefaultReuseThreshold
	}
	if c.ReuseThreshold >= c.SuppressThreshold {
		c.ReuseThreshold = c.SuppressThreshold / 4
	}
	if c.HalfLife <= 0 {
		c.HalfLife = DefaultHalfLife
	}
	if c.MaxPenalty <= 0 {
		c.MaxPenalty = 4 * c.SuppressThreshold
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Key identifies one damped route: the peer it was learned from (a
// neighbor name in core, "experiment@pop" in the policy engine) and
// the prefix.
type Key struct {
	Peer   string
	Prefix netip.Prefix
}

func (k Key) String() string { return k.Prefix.String() + " from " + k.Peer }

// flapEntry is the per-route figure of merit. The penalty decays
// lazily: it is brought current (exponential decay since last) on
// every access rather than by a background ticker.
type flapEntry struct {
	penalty    float64
	last       time.Time
	announced  bool
	suppressed bool
	reuse      *time.Timer
}

// Damper tracks per-route flap penalties per RFC 2439. All methods are
// safe for concurrent use.
type Damper struct {
	cfg DampingConfig

	mu     sync.Mutex
	routes map[Key]*flapEntry
	closed bool
}

// NewDamper returns a Damper with cfg's zero fields defaulted.
func NewDamper(cfg DampingConfig) *Damper {
	return &Damper{cfg: cfg.withDefaults(), routes: make(map[Key]*flapEntry)}
}

// Config reports the effective (defaulted) configuration.
func (d *Damper) Config() DampingConfig { return d.cfg }

// Announce records an advertisement of key. The first advertisement of
// an unknown route is free; any re-advertisement (implicit withdraw or
// attribute change — either way an UPDATE the platform must propagate)
// counts as a flap. It reports whether the route is suppressed and the
// current penalty.
func (d *Damper) Announce(key Key) (suppressed bool, penalty float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.cfg.Now()
	e := d.routes[key]
	if e == nil {
		// First sighting: remember it so the next update counts, but
		// charge no penalty.
		d.routes[key] = &flapEntry{last: now, announced: true}
		return false, 0
	}
	d.decayLocked(key, e, now)
	e.announced = true
	d.chargeLocked(key, e)
	return e.suppressed, e.penalty
}

// Withdraw records a withdrawal of key. Withdrawing a route that was
// announced is a flap; withdrawing an unknown route is a no-op.
// Withdrawals are never blocked — suppression only withholds
// advertisements — but the reported state lets callers mark the
// adj-RIB-in entry damped.
func (d *Damper) Withdraw(key Key) (suppressed bool, penalty float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.routes[key]
	if e == nil {
		return false, 0
	}
	d.decayLocked(key, e, d.cfg.Now())
	if !e.announced {
		return e.suppressed, e.penalty
	}
	e.announced = false
	d.chargeLocked(key, e)
	return e.suppressed, e.penalty
}

// Suppressed reports whether key is currently suppressed, bringing its
// penalty current first.
func (d *Damper) Suppressed(key Key) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.routes[key]
	if e == nil {
		return false
	}
	d.decayLocked(key, e, d.cfg.Now())
	return e.suppressed
}

// Len reports how many routes have live damping state.
func (d *Damper) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.routes)
}

// Close stops all reuse timers. The damper remains usable but no
// OnReuse callbacks will fire.
func (d *Damper) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	for _, e := range d.routes {
		if e.reuse != nil {
			e.reuse.Stop()
			e.reuse = nil
		}
	}
}

// chargeLocked adds one flap's penalty and handles the
// suppress-threshold crossing.
func (d *Damper) chargeLocked(key Key, e *flapEntry) {
	e.penalty = math.Min(e.penalty+d.cfg.FlapPenalty, d.cfg.MaxPenalty)
	dampingFlaps.Inc()
	if !e.suppressed && e.penalty >= d.cfg.SuppressThreshold {
		e.suppressed = true
		dampingSuppressed.Inc()
		dampingSuppressedNow.Add(1)
	}
	if e.suppressed {
		d.armReuseLocked(key, e)
	}
}

// decayLocked brings e's penalty current and handles the
// reuse-threshold crossing. It returns true when this call released a
// suppressed route.
func (d *Damper) decayLocked(key Key, e *flapEntry, now time.Time) (released bool) {
	if dt := now.Sub(e.last); dt > 0 {
		if e.penalty > 0 {
			e.penalty *= math.Exp2(-float64(dt) / float64(d.cfg.HalfLife))
		}
		e.last = now
	}
	if e.suppressed && e.penalty < d.cfg.ReuseThreshold {
		e.suppressed = false
		released = true
		dampingReused.Inc()
		dampingSuppressedNow.Add(-1)
		if e.reuse != nil {
			e.reuse.Stop()
			e.reuse = nil
		}
	}
	// Fully cooled and withdrawn: forget the route so the state map
	// tracks only active flappers and a long-quiet route's next
	// announcement is again free.
	if !e.suppressed && !e.announced && e.penalty < d.cfg.ReuseThreshold/8 {
		delete(d.routes, key)
	}
	return released
}

// reuseDelay computes how long the penalty takes to decay from p to
// the reuse threshold.
func (d *Damper) reuseDelay(p float64) time.Duration {
	if p <= d.cfg.ReuseThreshold {
		return 0
	}
	halves := math.Log2(p / d.cfg.ReuseThreshold)
	return time.Duration(halves * float64(d.cfg.HalfLife))
}

// armReuseLocked (re)arms the timer that releases a suppressed route
// once its penalty has decayed to the reuse threshold.
func (d *Damper) armReuseLocked(key Key, e *flapEntry) {
	if d.closed {
		return
	}
	delay := d.reuseDelay(e.penalty) + time.Millisecond
	if e.reuse != nil {
		e.reuse.Stop()
	}
	e.reuse = time.AfterFunc(delay, func() { d.reuseTick(key) })
}

// reuseTick runs when a reuse timer fires: if decay has released the
// route, notify the owner; if a fake clock or further flaps kept it
// suppressed, re-arm.
func (d *Damper) reuseTick(key Key) {
	d.mu.Lock()
	e := d.routes[key]
	if e == nil || d.closed {
		d.mu.Unlock()
		return
	}
	released := d.decayLocked(key, e, d.cfg.Now())
	if !released && e.suppressed {
		d.armReuseLocked(key, e)
	}
	cb := d.cfg.OnReuse
	d.mu.Unlock()
	if released && cb != nil {
		cb(key)
	}
}
