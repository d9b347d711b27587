// Package policy implements vBGP's control-plane enforcement engine
// (paper §3.3, §4.7): it interposes between experiment BGP sessions and
// the router, evaluates every announcement against the experiment's
// allocation and capabilities, enforces update rate limits, strips
// disallowed attributes, logs everything for attribution, and fails
// closed when unhealthy.
//
// The engine is deliberately decoupled from the routing engine so that
// policies can be stateful, evolve independently, and be validated with
// unit tests that inject conditions — the design rationale of §3.3.
package policy

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bgp"
	"repro/internal/guard"
	"repro/internal/rpki"
	"repro/internal/telemetry"
)

// Capabilities is the per-experiment capability set (paper §4.7). The
// zero value is the default "basic announcements only" privilege level,
// per the principle of least privilege.
type Capabilities struct {
	// MaxPoisonedASNs is how many foreign ASNs the experiment may insert
	// into AS paths (BGP poisoning). Zero forbids poisoning.
	MaxPoisonedASNs int
	// MaxCommunities is how many BGP communities (regular or large) an
	// announcement may carry. Zero means communities are stripped.
	MaxCommunities int
	// AllowTransitiveAttrs permits optional transitive attributes
	// unknown to the platform. When false they are stripped.
	AllowTransitiveAttrs bool
	// AllowTransit permits announcing routes whose origin ASN is not one
	// of the experiment's ASNs (legitimately providing transit for an
	// experimental prefix).
	AllowTransit bool
	// MaxPathLen bounds the total AS-path length, rejecting the
	// "paths with thousands of ASes" experiments the paper declined.
	// Zero selects DefaultMaxPathLen.
	MaxPathLen int
}

// DefaultMaxPathLen is the AS-path length cap applied when an
// experiment's capability set does not override it.
const DefaultMaxPathLen = 16

// DefaultDailyUpdateLimit is the per-prefix-per-PoP update budget:
// 144 updates/day, an average of one every 10 minutes (paper §4.7).
const DefaultDailyUpdateLimit = 144

// Experiment is the enforcement-relevant registration of one approved
// experiment: its allocation and capabilities.
type Experiment struct {
	// Name identifies the experiment.
	Name string
	// Prefixes is the experiment's address allocation. Announcements
	// must be these prefixes or subnets of them.
	Prefixes []netip.Prefix
	// ASNs are the origin AS numbers the experiment may use.
	ASNs []uint32
	// Caps is the experiment's capability set.
	Caps Capabilities
}

// allows reports whether p is within the experiment's allocation.
func (e *Experiment) allows(p netip.Prefix) bool {
	for _, a := range e.Prefixes {
		if a.Bits() <= p.Bits() && a.Contains(p.Addr()) {
			return true
		}
	}
	return false
}

func (e *Experiment) ownsASN(asn uint32) bool {
	for _, a := range e.ASNs {
		if a == asn {
			return true
		}
	}
	return false
}

func (e *Experiment) maxPathLen() int {
	if e.Caps.MaxPathLen > 0 {
		return e.Caps.MaxPathLen
	}
	return DefaultMaxPathLen
}

// Action is the engine's decision for one route.
type Action int

// Actions.
const (
	ActionAccept Action = iota
	ActionAcceptModified
	ActionReject
)

// String names the action.
func (a Action) String() string {
	return [...]string{"accept", "accept-modified", "reject"}[a]
}

// AuditEntry records one enforcement decision for attribution (§3.3).
type AuditEntry struct {
	Time       time.Time
	Experiment string
	PoP        string
	Prefix     netip.Prefix
	Action     Action
	Reasons    []string
}

// String formats the entry as one log line.
func (e AuditEntry) String() string {
	return fmt.Sprintf("%s exp=%s pop=%s prefix=%s action=%s reasons=[%s]",
		e.Time.UTC().Format(time.RFC3339), e.Experiment, e.PoP, e.Prefix,
		e.Action, strings.Join(e.Reasons, "; "))
}

// Engine is the control-plane enforcement engine. One Engine may be
// shared by every PoP of the platform, giving AS-wide policies
// synchronized state (paper §3.3: "state can be synchronized among vBGP
// instances to enable AS-wide policies"); per-PoP rate limits key on the
// PoP name.
type Engine struct {
	// PlatformASN is the platform's own AS number, which experiments'
	// paths are allowed to contain (vBGP prepends it on export).
	PlatformASN uint32

	// DailyUpdateLimit overrides DefaultDailyUpdateLimit when non-zero.
	DailyUpdateLimit int

	// GlobalDailyLimit, when non-zero, additionally caps the total
	// number of updates for one prefix across ALL PoPs per 24 hours —
	// the AS-wide synchronized policy the paper gives as the example of
	// what decoupled enforcement enables (§3.3: "limiting the total
	// number of times a prefix can be announced or withdrawn across all
	// PoPs during a 24 hour period").
	GlobalDailyLimit int

	// Now overrides the clock (tests).
	Now func() time.Time

	mu          sync.Mutex
	experiments map[string]*Experiment
	rate        map[rateKey][]time.Time
	failed      bool
	audit       []AuditEntry
	auditCap    int
	auditSeq    uint64 // decisions ever recorded; the last entry's number
	validator   rpki.Validator
	damper      *guard.Damper
}

type rateKey struct {
	prefix netip.Prefix
	pop    string
}

// NewEngine creates an engine with no registered experiments.
func NewEngine(platformASN uint32) *Engine {
	return &Engine{
		PlatformASN: platformASN,
		Now:         time.Now,
		experiments: make(map[string]*Experiment),
		rate:        make(map[rateKey][]time.Time),
		auditCap:    10000,
	}
}

// Register adds or replaces an experiment's authorization.
func (en *Engine) Register(e *Experiment) {
	en.mu.Lock()
	defer en.mu.Unlock()
	en.experiments[e.Name] = e
}

// Unregister removes an experiment's authorization.
func (en *Engine) Unregister(name string) {
	en.mu.Lock()
	defer en.mu.Unlock()
	delete(en.experiments, name)
}

// Experiment returns the registration for name, or nil.
func (en *Engine) Experiment(name string) *Experiment {
	en.mu.Lock()
	defer en.mu.Unlock()
	return en.experiments[name]
}

// SetFailed marks the engine unhealthy. While failed, every evaluation
// rejects: the engine fails closed, blocking all experiment announcements
// from propagating upstream (paper §4.7, "Impact of misbehaving
// experiments").
func (en *Engine) SetFailed(failed bool) {
	en.mu.Lock()
	defer en.mu.Unlock()
	if failed && !en.failed {
		failClosedTrips.Inc()
	}
	en.failed = failed
}

// SetValidator installs an RPKI origin validator. Once set, experiment
// announcements whose (prefix, origin) pair is Invalid against the
// validated cache are rejected before they reach the routing engine —
// the platform refuses to originate provably unauthorized routes even
// for experiments whose static allocation would otherwise allow them.
func (en *Engine) SetValidator(v rpki.Validator) {
	en.mu.Lock()
	defer en.mu.Unlock()
	en.validator = v
}

// SetDamper installs (or, with nil, removes) an RFC 2439 flap damper.
// With a damper set, every evaluated announcement and withdrawal
// registers a flap keyed ("experiment@pop", prefix), and announcements
// of suppressed routes are rejected until the penalty decays below the
// reuse threshold. Withdrawals are never blocked.
func (en *Engine) SetDamper(d *guard.Damper) {
	en.mu.Lock()
	defer en.mu.Unlock()
	en.damper = d
}

// Audit returns a copy of the recorded decisions, newest last.
func (en *Engine) Audit() []AuditEntry {
	en.mu.Lock()
	defer en.mu.Unlock()
	return append([]AuditEntry(nil), en.audit...)
}

// AuditSince returns a copy of the decisions recorded after the first
// seq ever recorded (nil when there are none), and the number of
// decisions recorded so far — the seq to pass next time. Decisions
// evicted from the log in between are not returned.
func (en *Engine) AuditSince(seq uint64) ([]AuditEntry, uint64) {
	en.mu.Lock()
	defer en.mu.Unlock()
	if seq >= en.auditSeq {
		return nil, en.auditSeq
	}
	n := len(en.audit)
	if fresh := en.auditSeq - seq; fresh < uint64(n) {
		n = int(fresh)
	}
	return append([]AuditEntry(nil), en.audit[len(en.audit)-n:]...), en.auditSeq
}

func (en *Engine) record(e AuditEntry) {
	en.auditSeq++
	if len(en.audit) >= en.auditCap {
		// Evict the oldest half: attribution needs recency, so the most
		// recent decisions always survive.
		evicted := len(en.audit) / 2
		en.audit = en.audit[evicted:]
		auditEvicted.Add(uint64(evicted))
	}
	en.audit = append(en.audit, e)
}

// Result is the outcome of evaluating one announcement.
type Result struct {
	Action Action
	// Attrs is the (possibly modified) attribute set to propagate when
	// Action is not ActionReject.
	Attrs *bgp.PathAttrs
	// Reasons explains rejections and modifications.
	Reasons []string
}

// EvaluateAnnouncement checks a single-prefix announcement from an
// experiment at a PoP. Any panic inside evaluation marks the engine
// failed (fail closed) and rejects.
func (en *Engine) EvaluateAnnouncement(expName, pop string, prefix netip.Prefix, attrs *bgp.PathAttrs) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			en.SetFailed(true)
			verdictReject.Inc()
			res = Result{Action: ActionReject, Reasons: []string{fmt.Sprintf("internal policy error: %v (failing closed)", r)}}
		}
	}()
	en.mu.Lock()
	defer en.mu.Unlock()

	rejectWith := func(c *telemetry.Counter, reasons ...string) Result {
		c.Inc()
		r := Result{Action: ActionReject, Reasons: reasons}
		en.record(AuditEntry{Time: en.Now(), Experiment: expName, PoP: pop, Prefix: prefix, Action: ActionReject, Reasons: reasons})
		return r
	}
	reject := func(reasons ...string) Result { return rejectWith(verdictReject, reasons...) }

	if en.failed {
		return reject("enforcement engine unhealthy: failing closed")
	}
	exp := en.experiments[expName]
	if exp == nil {
		return reject("unknown experiment")
	}

	// Prefix ownership: no hijacks (§4.7 "policing content").
	if !exp.allows(prefix) {
		return reject(fmt.Sprintf("prefix %s outside allocation", prefix))
	}

	if attrs == nil {
		attrs = &bgp.PathAttrs{}
	}
	out := attrs.Clone()
	var mods []string

	// Origin ASN validation.
	if origin := out.OriginASN(); origin != 0 && !exp.ownsASN(origin) && origin != en.PlatformASN {
		if !exp.Caps.AllowTransit {
			return reject(fmt.Sprintf("origin AS%d not authorized", origin))
		}
	}

	// RPKI route origin validation (RFC 6811): an announcement whose
	// (prefix, origin) is Invalid against the validated cache never
	// leaves the platform. NotFound passes — most address space has no
	// ROA, and rejecting it would break every legacy experiment.
	if en.validator != nil {
		origin := out.OriginASN()
		if origin == 0 {
			if len(exp.ASNs) > 0 {
				origin = exp.ASNs[0]
			} else {
				origin = en.PlatformASN
			}
		}
		if st := en.validator.Validate(prefix, origin); st == rpki.Invalid {
			return rejectWith(verdictROVInvalid,
				fmt.Sprintf("RPKI invalid: origin AS%d not authorized for %s by any ROA", origin, prefix))
		}
	}

	// Path length and poisoning budget.
	if l := out.ASPathLen(); l > exp.maxPathLen() {
		return reject(fmt.Sprintf("AS path length %d exceeds cap %d", l, exp.maxPathLen()))
	}
	foreign := map[uint32]bool{}
	for _, asn := range out.ASPathFlat() {
		if asn != en.PlatformASN && !exp.ownsASN(asn) {
			foreign[asn] = true
		}
	}
	if len(foreign) > 0 && !exp.Caps.AllowTransit {
		if len(foreign) > exp.Caps.MaxPoisonedASNs {
			return reject(fmt.Sprintf("%d poisoned ASNs exceeds capability %d",
				len(foreign), exp.Caps.MaxPoisonedASNs))
		}
	}

	// Community capability: count both kinds against the budget; strip
	// when over (the paper's emulated-experiment test checks exactly
	// this stripping behavior, §4.7 "Testing security policies").
	if n := len(out.Communities) + len(out.LargeCommunities); n > exp.Caps.MaxCommunities {
		if len(out.Communities) > 0 {
			mods = append(mods, fmt.Sprintf("stripped %d communities (capability %d)",
				len(out.Communities), exp.Caps.MaxCommunities))
			out.Communities = nil
		}
		if len(out.LargeCommunities) > 0 {
			mods = append(mods, fmt.Sprintf("stripped %d large communities", len(out.LargeCommunities)))
			out.LargeCommunities = nil
		}
	}

	// Transitive attribute capability.
	if !exp.Caps.AllowTransitiveAttrs && len(out.Unknown) > 0 {
		mods = append(mods, fmt.Sprintf("stripped %d non-standard attributes", len(out.Unknown)))
		out.Unknown = nil
	}

	// Flap damping (RFC 2439): every announcement registers a flap;
	// once a route is suppressed, further announcements are rejected
	// until the penalty decays below the reuse threshold. Checked before
	// the rate limit so suppressed churn does not consume daily budget.
	if en.damper != nil {
		if sup, p := en.damper.Announce(dampKey(expName, pop, prefix)); sup {
			return rejectWith(verdictDamped, fmt.Sprintf("flap damping: %s from %s at %s suppressed (penalty %.0f ≥ %.0f)",
				prefix, expName, pop, p, en.damper.Config().SuppressThreshold))
		}
	}

	// Update rate limit (per prefix per PoP).
	if ok, observed := en.admitRateLocked(prefix, pop); !ok {
		return rejectWith(verdictRateLimited, fmt.Sprintf("update rate for %s at %s exceeds %d/day (observed %d in window)",
			prefix, pop, en.dailyLimit(), observed))
	}

	action := ActionAccept
	if len(mods) > 0 {
		action = ActionAcceptModified
		verdictAcceptModified.Inc()
	} else {
		verdictAccept.Inc()
	}
	en.record(AuditEntry{Time: en.Now(), Experiment: expName, PoP: pop, Prefix: prefix, Action: action, Reasons: mods})
	return Result{Action: action, Attrs: out, Reasons: mods}
}

// EvaluateWithdraw checks a withdrawal: it must reference the
// experiment's own allocation and it consumes rate budget like an
// announcement (withdrawals are BGP updates too).
func (en *Engine) EvaluateWithdraw(expName, pop string, prefix netip.Prefix) Result {
	en.mu.Lock()
	defer en.mu.Unlock()
	rejectWith := func(c *telemetry.Counter, reasons ...string) Result {
		c.Inc()
		en.record(AuditEntry{Time: en.Now(), Experiment: expName, PoP: pop, Prefix: prefix, Action: ActionReject, Reasons: reasons})
		return Result{Action: ActionReject, Reasons: reasons}
	}
	reject := func(reasons ...string) Result { return rejectWith(verdictReject, reasons...) }
	if en.failed {
		return reject("enforcement engine unhealthy: failing closed")
	}
	exp := en.experiments[expName]
	if exp == nil {
		return reject("unknown experiment")
	}
	if !exp.allows(prefix) {
		return reject(fmt.Sprintf("prefix %s outside allocation", prefix))
	}
	// A withdrawal of an announced route is a flap, but withdrawals are
	// never blocked: suppression only withholds advertisements.
	if en.damper != nil {
		en.damper.Withdraw(dampKey(expName, pop, prefix))
	}
	if ok, observed := en.admitRateLocked(prefix, pop); !ok {
		return rejectWith(verdictRateLimited, fmt.Sprintf("update rate for %s at %s exceeds %d/day (observed %d in window)",
			prefix, pop, en.dailyLimit(), observed))
	}
	verdictAccept.Inc()
	en.record(AuditEntry{Time: en.Now(), Experiment: expName, PoP: pop, Prefix: prefix, Action: ActionAccept})
	return Result{Action: ActionAccept}
}

// dampKey keys the policy damper per (experiment, PoP, prefix): one
// experiment flapping a prefix at one PoP must not suppress another
// experiment's (or another PoP's) use of the same prefix.
func dampKey(expName, pop string, prefix netip.Prefix) guard.Key {
	return guard.Key{Peer: expName + "@" + pop, Prefix: prefix}
}

func (en *Engine) dailyLimit() int {
	if en.DailyUpdateLimit > 0 {
		return en.DailyUpdateLimit
	}
	return DefaultDailyUpdateLimit
}

// admitRateLocked implements 24-hour sliding-window counters per
// (prefix, PoP) and, when configured, per prefix across all PoPs. On
// rejection it reports the observed count in the window that tripped,
// so the verdict and audit entry can show load, not just the limit.
func (en *Engine) admitRateLocked(prefix netip.Prefix, pop string) (ok bool, observed int) {
	now := en.Now()
	cutoff := now.Add(-24 * time.Hour)

	prune := func(key rateKey) []time.Time {
		hist := en.rate[key]
		for len(hist) > 0 && hist[0].Before(cutoff) {
			hist = hist[1:]
		}
		en.rate[key] = hist
		return hist
	}

	key := rateKey{prefix, pop}
	hist := prune(key)
	if len(hist) >= en.dailyLimit() {
		return false, len(hist)
	}
	// AS-wide budget: the empty PoP name keys the synchronized counter.
	globalKey := rateKey{prefix, ""}
	if en.GlobalDailyLimit > 0 {
		if g := prune(globalKey); len(g) >= en.GlobalDailyLimit {
			return false, len(g)
		}
	}
	en.rate[key] = append(hist, now)
	if en.GlobalDailyLimit > 0 {
		en.rate[globalKey] = append(en.rate[globalKey], now)
	}
	return true, len(hist) + 1
}

// Experiments returns the registered experiment names, sorted.
func (en *Engine) Experiments() []string {
	en.mu.Lock()
	defer en.mu.Unlock()
	names := make([]string, 0, len(en.experiments))
	for n := range en.experiments {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
