// Package chaos is a deterministic, seedable fault-injection subsystem
// for the platform's transports: it wraps the net.Conns carrying BGP
// sessions and tunnels, and the netsim links under them, and injects
// connection resets, read/write stalls, byte corruption, added latency,
// link flaps, and whole-PoP partitions from a scripted or seeded-random
// schedule.
//
// The paper's platform runs for years across thirteen PoPs; sessions
// there die constantly — carrier maintenance, tunnel drops, router
// restarts — and the resilience machinery (reconnect with backoff,
// graceful restart) only counts if it can be exercised on demand and
// reproducibly. An Injector is that exercise rig: every registered
// target is addressed by (class, name, pop), every injected fault is
// recorded in an event log and counted through internal/telemetry, and
// the same seed against the same registration order replays the same
// fault sequence.
package chaos

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// FaultKind names one kind of injected fault.
type FaultKind string

// Fault kinds.
const (
	// Reset closes the underlying transport, killing whatever session
	// rides on it (both directions on in-memory pipes).
	Reset FaultKind = "reset"
	// StallRead blocks reads on the wrapped conn for the duration,
	// simulating an unresponsive peer (exercises hold timers).
	StallRead FaultKind = "stall-read"
	// StallWrite blocks writes for the duration.
	StallWrite FaultKind = "stall-write"
	// Corrupt flips one byte in each of the next few reads, forcing
	// decode errors downstream.
	Corrupt FaultKind = "corrupt"
	// Delay adds per-operation latency for the duration.
	Delay FaultKind = "delay"
	// LinkFlap detaches a registered netsim link and re-attaches it
	// after the duration.
	LinkFlap FaultKind = "link-flap"
	// Partition resets every conn and flaps every link tagged with the
	// fault's PoP (all of them when PoP is empty).
	Partition FaultKind = "partition"
)

// ConnKinds are the kinds that target a wrapped conn (everything but
// link flaps and partitions).
func ConnKinds() []FaultKind {
	return []FaultKind{Reset, StallRead, StallWrite, Corrupt, Delay}
}

// ParseKind maps a fault-kind name (as spelled in the constants above,
// e.g. "reset" or "link-flap") to its FaultKind.
func ParseKind(name string) (FaultKind, error) {
	switch k := FaultKind(name); k {
	case Reset, StallRead, StallWrite, Corrupt, Delay, LinkFlap, Partition:
		return k, nil
	}
	return "", fmt.Errorf("chaos: unknown fault kind %q", name)
}

// Fault is one fault to inject. Empty Class/Name/PoP fields are
// wildcards: a scripted {Kind: Reset} resets every registered conn.
type Fault struct {
	// After is the offset from Run start at which a scripted fault
	// fires. Ignored by Inject.
	After time.Duration
	// Kind selects the fault.
	Kind FaultKind
	// Class restricts the targets ("neighbor", "backbone", "tunnel",
	// "experiment"); empty matches all.
	Class string
	// Name restricts to one registered target name; empty matches all.
	Name string
	// PoP restricts to targets tagged with a PoP; empty matches all.
	PoP string
	// Duration bounds stalls, delays, and flaps. Zero selects the
	// injector's DefaultDuration.
	Duration time.Duration
}

// Event records one injected fault.
type Event struct {
	// At is the offset from Run start (zero for direct Inject calls
	// before Run).
	At time.Duration
	// Fault is the fault as injected (Duration resolved).
	Fault Fault
	// Targets lists the class/name of every target hit.
	Targets []string
}

// Config configures an Injector.
type Config struct {
	// Seed makes the random schedule reproducible. Faults drawn from
	// the same seed against the same registration order are identical.
	Seed int64
	// Script, when non-empty, replaces the random schedule: Run fires
	// each fault at its After offset and returns.
	Script []Fault
	// Rate is the random-mode fault rate in faults per minute.
	Rate float64
	// Kinds restricts random-mode faults; defaults to ConnKinds plus
	// LinkFlap when links are registered.
	Kinds []FaultKind
	// Classes restricts random-mode conn targets; empty matches all.
	Classes []string
	// DefaultDuration is the stall/delay/flap length when a Fault
	// carries none. Defaults to 50ms.
	DefaultDuration time.Duration
	// Logf receives injection logs.
	Logf func(format string, args ...any)
}

// link is a registered flappable link.
type link struct {
	name, pop string
	down, up  func()
}

// Injector owns the registered targets and the fault schedule.
type Injector struct {
	cfg Config

	mu     sync.Mutex
	rng    *rand.Rand
	conns  []*faultConn
	links  []*link
	events []Event
	start  time.Time

	stopOnce sync.Once
	stopCh   chan struct{}
	doneCh   chan struct{}

	metrics injectorMetrics
}

// New creates an Injector. Targets are registered with WrapConn and
// RegisterLink; the schedule runs with Run or fires directly via Inject.
func New(cfg Config) *Injector {
	if cfg.DefaultDuration <= 0 {
		cfg.DefaultDuration = 50 * time.Millisecond
	}
	return &Injector{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		stopCh:  make(chan struct{}),
		doneCh:  make(chan struct{}),
		metrics: newInjectorMetrics(),
	}
}

func (in *Injector) logf(format string, args ...any) {
	if in.cfg.Logf != nil {
		in.cfg.Logf(format, args...)
	}
}

// WrapConn registers c as a fault target addressed by (class, name,
// pop) and returns the wrapped conn to use in its place. A nil Injector
// returns c unchanged, so callers can wire chaos unconditionally.
func (in *Injector) WrapConn(class, name, pop string, c net.Conn) net.Conn {
	if in == nil {
		return c
	}
	fc := newFaultConn(in, class, name, pop, c)
	in.mu.Lock()
	in.conns = append(in.conns, fc)
	n := len(in.conns)
	in.mu.Unlock()
	in.metrics.conns.Set(int64(n))
	return fc
}

// RegisterLink registers a flappable link (down detaches, up
// re-attaches). A nil Injector ignores the call.
func (in *Injector) RegisterLink(name, pop string, down, up func()) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.links = append(in.links, &link{name: name, pop: pop, down: down, up: up})
	n := len(in.links)
	in.mu.Unlock()
	in.metrics.links.Set(int64(n))
}

// match reports whether a target's tags satisfy the fault's selectors.
func match(f Fault, class, name, pop string) bool {
	if f.Class != "" && f.Class != class {
		return false
	}
	if f.Name != "" && f.Name != name {
		return false
	}
	if f.PoP != "" && f.PoP != pop {
		return false
	}
	return true
}

// pruneLocked drops closed conns from the registry. Callers hold in.mu.
func (in *Injector) pruneLocked() {
	live := in.conns[:0]
	for _, c := range in.conns {
		if !c.isClosed() {
			live = append(live, c)
		}
	}
	for i := len(live); i < len(in.conns); i++ {
		in.conns[i] = nil
	}
	in.conns = live
}

// Inject fires one fault synchronously against every matching target
// and returns the number of targets hit. Un-flap and un-stall timers
// run in the background.
func (in *Injector) Inject(f Fault) int {
	if f.Duration <= 0 {
		f.Duration = in.cfg.DefaultDuration
	}
	in.mu.Lock()
	in.pruneLocked()
	var conns []*faultConn
	var links []*link
	switch f.Kind {
	case LinkFlap:
		for _, l := range in.links {
			if match(f, "", l.name, l.pop) {
				links = append(links, l)
			}
		}
	case Partition:
		for _, c := range in.conns {
			if f.PoP == "" || c.pop == f.PoP {
				conns = append(conns, c)
			}
		}
		for _, l := range in.links {
			if f.PoP == "" || l.pop == f.PoP {
				links = append(links, l)
			}
		}
	default:
		for _, c := range in.conns {
			if match(f, c.class, c.name, c.pop) {
				conns = append(conns, c)
			}
		}
	}
	in.mu.Unlock()

	targets := make([]string, 0, len(conns)+len(links))
	for _, c := range conns {
		kind := f.Kind
		if kind == Partition {
			kind = Reset
		}
		c.apply(kind, f.Duration)
		targets = append(targets, c.class+"/"+c.name)
	}
	for _, l := range links {
		l.down()
		up := l.up
		time.AfterFunc(f.Duration, up)
		targets = append(targets, "link/"+l.name)
	}
	in.record(f, targets)
	if len(targets) > 0 {
		in.logf("chaos: %s hit %d target(s): %v", f.Kind, len(targets), targets)
	}
	return len(targets)
}

func (in *Injector) record(f Fault, targets []string) {
	in.metrics.faults(f.Kind).Inc()
	in.metrics.targetsHit.Add(uint64(len(targets)))
	in.mu.Lock()
	at := time.Duration(0)
	if !in.start.IsZero() {
		at = time.Since(in.start)
	}
	in.events = append(in.events, Event{At: at, Fault: f, Targets: targets})
	in.mu.Unlock()
}

// randomFault draws the next random-mode fault: one kind, one concrete
// target. The draw consumes the seeded rng, so the sequence of
// (kind, target) pairs is a pure function of seed and registration
// order. It returns false when nothing is registered.
func (in *Injector) randomFault() (Fault, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.pruneLocked()

	kinds := in.cfg.Kinds
	if len(kinds) == 0 {
		kinds = ConnKinds()
		if len(in.links) > 0 {
			kinds = append(kinds, LinkFlap)
		}
	}
	kind := kinds[in.rng.Intn(len(kinds))]

	f := Fault{Kind: kind, Duration: in.cfg.DefaultDuration}
	switch kind {
	case LinkFlap:
		if len(in.links) == 0 {
			return Fault{}, false
		}
		l := in.links[in.rng.Intn(len(in.links))]
		f.Name, f.PoP = l.name, l.pop
	case Partition:
		pops := make(map[string]bool)
		var order []string
		for _, c := range in.conns {
			if c.pop != "" && !pops[c.pop] {
				pops[c.pop] = true
				order = append(order, c.pop)
			}
		}
		if len(order) == 0 {
			return Fault{}, false
		}
		f.PoP = order[in.rng.Intn(len(order))]
	default:
		var eligible []*faultConn
		for _, c := range in.conns {
			if len(in.cfg.Classes) == 0 {
				eligible = append(eligible, c)
				continue
			}
			for _, cl := range in.cfg.Classes {
				if c.class == cl {
					eligible = append(eligible, c)
					break
				}
			}
		}
		if len(eligible) == 0 {
			return Fault{}, false
		}
		c := eligible[in.rng.Intn(len(eligible))]
		f.Class, f.Name, f.PoP = c.class, c.name, c.pop
	}
	return f, true
}

// Run executes the schedule: the script when one is configured,
// otherwise seeded-random faults at cfg.Rate until Stop. It returns
// when the script completes or Stop is called.
func (in *Injector) Run() {
	defer close(in.doneCh)
	in.mu.Lock()
	in.start = time.Now()
	base := in.start
	in.mu.Unlock()

	if len(in.cfg.Script) > 0 {
		script := append([]Fault(nil), in.cfg.Script...)
		for i := 1; i < len(script); i++ {
			for j := i; j > 0 && script[j].After < script[j-1].After; j-- {
				script[j], script[j-1] = script[j-1], script[j]
			}
		}
		for _, f := range script {
			wait := time.Until(base.Add(f.After))
			if wait > 0 {
				select {
				case <-in.stopCh:
					return
				case <-time.After(wait):
				}
			}
			in.Inject(f)
		}
		return
	}

	if in.cfg.Rate <= 0 {
		<-in.stopCh
		return
	}
	mean := time.Duration(float64(time.Minute) / in.cfg.Rate)
	for {
		in.mu.Lock()
		// Jitter the gap in [0.5, 1.5) of the mean, from the seeded rng.
		gap := time.Duration(float64(mean) * (0.5 + in.rng.Float64()))
		in.mu.Unlock()
		select {
		case <-in.stopCh:
			return
		case <-time.After(gap):
		}
		if f, ok := in.randomFault(); ok {
			in.Inject(f)
		}
	}
}

// Stop ends Run. Safe to call multiple times and before Run.
func (in *Injector) Stop() {
	in.stopOnce.Do(func() { close(in.stopCh) })
}

// Done is closed when Run returns.
func (in *Injector) Done() <-chan struct{} { return in.doneCh }
