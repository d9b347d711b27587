package policy

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/bgp"
)

const platformASN = 47065

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func newTestEngine() *Engine {
	en := NewEngine(platformASN)
	en.Register(&Experiment{
		Name:     "exp1",
		Prefixes: []netip.Prefix{pfx("184.164.224.0/23"), pfx("2804:269c::/32")},
		ASNs:     []uint32{61574},
	})
	return en
}

func originAttrs(asns ...uint32) *bgp.PathAttrs {
	return &bgp.PathAttrs{
		Origin: bgp.OriginIGP, HasOrigin: true,
		ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: asns}},
		NextHop: netip.MustParseAddr("100.65.0.1"),
	}
}

func TestAcceptOwnPrefix(t *testing.T) {
	en := newTestEngine()
	res := en.EvaluateAnnouncement("exp1", "amsix", pfx("184.164.224.0/24"), originAttrs(61574))
	if res.Action != ActionAccept {
		t.Fatalf("action = %s, reasons = %v", res.Action, res.Reasons)
	}
}

func TestRejectHijack(t *testing.T) {
	en := newTestEngine()
	res := en.EvaluateAnnouncement("exp1", "amsix", pfx("8.8.8.0/24"), originAttrs(61574))
	if res.Action != ActionReject {
		t.Fatal("hijack of foreign prefix accepted")
	}
	// Covering supernet of the allocation is also a violation.
	res = en.EvaluateAnnouncement("exp1", "amsix", pfx("184.164.0.0/16"), originAttrs(61574))
	if res.Action != ActionReject {
		t.Fatal("supernet announcement accepted")
	}
}

func TestAcceptSubnetOfAllocation(t *testing.T) {
	en := newTestEngine()
	res := en.EvaluateAnnouncement("exp1", "amsix", pfx("184.164.225.128/25"), originAttrs(61574))
	if res.Action != ActionAccept {
		t.Fatalf("subnet rejected: %v", res.Reasons)
	}
	res = en.EvaluateAnnouncement("exp1", "amsix", pfx("2804:269c:1::/48"), originAttrs(61574))
	if res.Action != ActionAccept {
		t.Fatalf("v6 subnet rejected: %v", res.Reasons)
	}
}

func TestRejectUnknownExperiment(t *testing.T) {
	en := newTestEngine()
	res := en.EvaluateAnnouncement("ghost", "amsix", pfx("184.164.224.0/24"), originAttrs(61574))
	if res.Action != ActionReject {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRejectUnauthorizedOrigin(t *testing.T) {
	en := newTestEngine()
	res := en.EvaluateAnnouncement("exp1", "amsix", pfx("184.164.224.0/24"), originAttrs(64512))
	if res.Action != ActionReject {
		t.Fatal("foreign origin ASN accepted")
	}
	// A poisoning budget that covers the foreign ASN does not make it a
	// legitimate origin: poisoning must end in the experiment's own ASN.
	en.Register(&Experiment{
		Name:     "poisoner",
		Prefixes: []netip.Prefix{pfx("184.164.228.0/24")},
		ASNs:     []uint32{61576},
		Caps:     Capabilities{MaxPoisonedASNs: 1},
	})
	if res := en.EvaluateAnnouncement("poisoner", "amsix", pfx("184.164.228.0/24"), originAttrs(61576, 64512, 61576)); res.Action != ActionAccept {
		t.Fatalf("poisoning within budget rejected: %v", res.Reasons)
	}
	res = en.EvaluateAnnouncement("poisoner", "amsix", pfx("184.164.228.0/24"), originAttrs(61576, 64512))
	if res.Action != ActionReject || !strings.Contains(strings.Join(res.Reasons, ";"), "origin AS64512 not authorized") {
		t.Fatalf("foreign origin within the poisoning budget: %s %v", res.Action, res.Reasons)
	}
	// With the transit capability the same announcement is legitimate.
	en.Register(&Experiment{
		Name:     "exp2",
		Prefixes: []netip.Prefix{pfx("184.164.226.0/24")},
		ASNs:     []uint32{61575},
		Caps:     Capabilities{AllowTransit: true},
	})
	res = en.EvaluateAnnouncement("exp2", "amsix", pfx("184.164.226.0/24"), originAttrs(61575, 64512))
	if res.Action != ActionAccept {
		t.Fatalf("transit capability did not permit: %v", res.Reasons)
	}
}

func TestPoisoningCapability(t *testing.T) {
	en := newTestEngine()
	// Poisoned path: experiment ASN with two foreign ASNs inserted.
	attrs := originAttrs(61574, 3356, 174, 61574)
	res := en.EvaluateAnnouncement("exp1", "amsix", pfx("184.164.224.0/24"), attrs)
	if res.Action != ActionReject {
		t.Fatal("poisoning without capability accepted")
	}
	en.Register(&Experiment{
		Name:     "exp1",
		Prefixes: []netip.Prefix{pfx("184.164.224.0/23")},
		ASNs:     []uint32{61574},
		Caps:     Capabilities{MaxPoisonedASNs: 2},
	})
	res = en.EvaluateAnnouncement("exp1", "amsix", pfx("184.164.224.0/24"), attrs)
	if res.Action != ActionAccept {
		t.Fatalf("2 poisons within capability rejected: %v", res.Reasons)
	}
	attrs3 := originAttrs(61574, 3356, 174, 2914, 61574)
	res = en.EvaluateAnnouncement("exp1", "amsix", pfx("184.164.224.0/24"), attrs3)
	if res.Action != ActionReject {
		t.Fatal("3 poisons beyond capability accepted")
	}
}

func TestPathLengthCap(t *testing.T) {
	en := newTestEngine()
	long := make([]uint32, DefaultMaxPathLen+1)
	for i := range long {
		long[i] = 61574 // prepending only: no poison budget needed
	}
	res := en.EvaluateAnnouncement("exp1", "amsix", pfx("184.164.224.0/24"), originAttrs(long...))
	if res.Action != ActionReject {
		t.Fatal("over-long path accepted")
	}
	ok := make([]uint32, DefaultMaxPathLen)
	for i := range ok {
		ok[i] = 61574
	}
	res = en.EvaluateAnnouncement("exp1", "amsix", pfx("184.164.224.0/24"), originAttrs(ok...))
	if res.Action != ActionAccept {
		t.Fatalf("prepending within cap rejected: %v", res.Reasons)
	}
}

func TestCommunityStrippedWithoutCapability(t *testing.T) {
	en := newTestEngine()
	attrs := originAttrs(61574)
	attrs.Communities = []bgp.Community{bgp.NewCommunity(3356, 70)}
	attrs.LargeCommunities = []bgp.LargeCommunity{{Global: 1, Local1: 2, Local2: 3}}
	res := en.EvaluateAnnouncement("exp1", "amsix", pfx("184.164.224.0/24"), attrs)
	if res.Action != ActionAcceptModified {
		t.Fatalf("action = %s", res.Action)
	}
	if len(res.Attrs.Communities) != 0 || len(res.Attrs.LargeCommunities) != 0 {
		t.Error("communities not stripped")
	}
	// Original attrs must be untouched (engine works on a clone).
	if len(attrs.Communities) != 1 {
		t.Error("engine mutated caller's attributes")
	}
}

func TestCommunityAllowedWithCapability(t *testing.T) {
	en := newTestEngine()
	en.Register(&Experiment{
		Name:     "exp1",
		Prefixes: []netip.Prefix{pfx("184.164.224.0/23")},
		ASNs:     []uint32{61574},
		Caps:     Capabilities{MaxCommunities: 4},
	})
	attrs := originAttrs(61574)
	attrs.Communities = []bgp.Community{bgp.NewCommunity(3356, 70), bgp.NewCommunity(174, 990)}
	res := en.EvaluateAnnouncement("exp1", "amsix", pfx("184.164.224.0/24"), attrs)
	if res.Action != ActionAccept {
		t.Fatalf("action = %s reasons = %v", res.Action, res.Reasons)
	}
	if len(res.Attrs.Communities) != 2 {
		t.Error("communities lost despite capability")
	}
}

func TestTransitiveAttrsStripped(t *testing.T) {
	en := newTestEngine()
	attrs := originAttrs(61574)
	attrs.Unknown = []bgp.UnknownAttr{{Flags: bgp.FlagOptional | bgp.FlagTransitive, Type: 99, Data: []byte{1}}}
	res := en.EvaluateAnnouncement("exp1", "amsix", pfx("184.164.224.0/24"), attrs)
	if res.Action != ActionAcceptModified || len(res.Attrs.Unknown) != 0 {
		t.Fatalf("non-standard attribute survived: %s %v", res.Action, res.Attrs.Unknown)
	}

	en.Register(&Experiment{
		Name:     "exp1",
		Prefixes: []netip.Prefix{pfx("184.164.224.0/23")},
		ASNs:     []uint32{61574},
		Caps:     Capabilities{AllowTransitiveAttrs: true},
	})
	res = en.EvaluateAnnouncement("exp1", "amsix", pfx("184.164.224.0/24"), attrs)
	if res.Action != ActionAccept || len(res.Attrs.Unknown) != 1 {
		t.Fatalf("capability did not permit transitive attr: %s", res.Action)
	}
}

func TestRateLimit144PerDay(t *testing.T) {
	en := newTestEngine()
	now := time.Unix(1700000000, 0)
	en.Now = func() time.Time { return now }

	prefix := pfx("184.164.224.0/24")
	for i := 0; i < DefaultDailyUpdateLimit; i++ {
		res := en.EvaluateAnnouncement("exp1", "amsix", prefix, originAttrs(61574))
		if res.Action != ActionAccept {
			t.Fatalf("update %d rejected: %v", i, res.Reasons)
		}
		now = now.Add(time.Second)
	}
	res := en.EvaluateAnnouncement("exp1", "amsix", prefix, originAttrs(61574))
	if res.Action != ActionReject {
		t.Fatal("update 145 accepted")
	}
	if en.RateBudgetRemaining(prefix, "amsix") != 0 {
		t.Error("budget should be exhausted")
	}

	// A different PoP has its own budget; a different prefix too.
	if res := en.EvaluateAnnouncement("exp1", "seattle", prefix, originAttrs(61574)); res.Action != ActionAccept {
		t.Error("other PoP shares budget")
	}
	if res := en.EvaluateAnnouncement("exp1", "amsix", pfx("184.164.225.0/24"), originAttrs(61574)); res.Action != ActionAccept {
		t.Error("other prefix shares budget")
	}

	// The window slides: 24h later the budget frees up.
	now = now.Add(25 * time.Hour)
	if res := en.EvaluateAnnouncement("exp1", "amsix", prefix, originAttrs(61574)); res.Action != ActionAccept {
		t.Error("budget did not recover after window")
	}
}

func TestWithdrawalsConsumeBudgetAndValidate(t *testing.T) {
	en := newTestEngine()
	now := time.Unix(1700000000, 0)
	en.Now = func() time.Time { return now }

	if res := en.EvaluateWithdraw("exp1", "amsix", pfx("184.164.224.0/24")); res.Action != ActionAccept {
		t.Fatalf("legitimate withdraw rejected: %v", res.Reasons)
	}
	if res := en.EvaluateWithdraw("exp1", "amsix", pfx("8.8.8.0/24")); res.Action != ActionReject {
		t.Fatal("foreign withdraw accepted")
	}
	if got := en.RateBudgetRemaining(pfx("184.164.224.0/24"), "amsix"); got != DefaultDailyUpdateLimit-1 {
		t.Errorf("budget = %d", got)
	}
}

func TestFailClosed(t *testing.T) {
	en := newTestEngine()
	en.SetFailed(true)
	res := en.EvaluateAnnouncement("exp1", "amsix", pfx("184.164.224.0/24"), originAttrs(61574))
	if res.Action != ActionReject {
		t.Fatal("failed engine accepted an announcement")
	}
	if res := en.EvaluateWithdraw("exp1", "amsix", pfx("184.164.224.0/24")); res.Action != ActionReject {
		t.Fatal("failed engine accepted a withdraw")
	}
	en.SetFailed(false)
	if res := en.EvaluateAnnouncement("exp1", "amsix", pfx("184.164.224.0/24"), originAttrs(61574)); res.Action != ActionAccept {
		t.Fatal("recovered engine still rejecting")
	}
}

func TestPanicInPolicyFailsClosed(t *testing.T) {
	en := newTestEngine()
	// A nil Now function makes evaluation panic; the engine must recover,
	// reject, and mark itself failed.
	en.Now = nil
	res := en.EvaluateAnnouncement("exp1", "amsix", pfx("184.164.224.0/24"), originAttrs(61574))
	if res.Action != ActionReject {
		t.Fatal("panic did not reject")
	}
	en.Now = time.Now
	res = en.EvaluateAnnouncement("exp1", "amsix", pfx("184.164.224.0/24"), originAttrs(61574))
	if res.Action != ActionReject {
		t.Fatal("engine did not stay failed after panic")
	}
}

func TestAuditLog(t *testing.T) {
	en := newTestEngine()
	en.EvaluateAnnouncement("exp1", "amsix", pfx("8.8.8.0/24"), originAttrs(61574))
	en.EvaluateAnnouncement("exp1", "amsix", pfx("184.164.224.0/24"), originAttrs(61574))
	audit := en.Audit()
	if len(audit) != 2 {
		t.Fatalf("audit entries = %d", len(audit))
	}
	if audit[0].Action != ActionReject || audit[1].Action != ActionAccept {
		t.Errorf("audit actions: %s %s", audit[0].Action, audit[1].Action)
	}
	if !strings.Contains(audit[0].String(), "outside allocation") {
		t.Errorf("audit line: %s", audit[0])
	}
}

func TestNilAttrsAccepted(t *testing.T) {
	en := newTestEngine()
	res := en.EvaluateAnnouncement("exp1", "amsix", pfx("184.164.224.0/24"), nil)
	if res.Action != ActionAccept {
		t.Fatalf("nil attrs: %s %v", res.Action, res.Reasons)
	}
}

func TestUnregister(t *testing.T) {
	en := newTestEngine()
	en.Unregister("exp1")
	res := en.EvaluateAnnouncement("exp1", "amsix", pfx("184.164.224.0/24"), originAttrs(61574))
	if res.Action != ActionReject {
		t.Fatal("unregistered experiment accepted")
	}
	if en.Experiment("exp1") != nil {
		t.Error("Experiment() after unregister")
	}
}

func TestExperimentsSorted(t *testing.T) {
	en := newTestEngine()
	en.Register(&Experiment{Name: "alpha"})
	got := en.Experiments()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "exp1" {
		t.Errorf("experiments = %v", got)
	}
}

func TestGlobalDailyLimitAcrossPoPs(t *testing.T) {
	en := newTestEngine()
	en.GlobalDailyLimit = 5
	now := time.Unix(1700000000, 0)
	en.Now = func() time.Time { return now }
	prefix := pfx("184.164.224.0/24")

	// Spread updates across PoPs: each PoP is far under its own 144
	// budget, but the AS-wide counter saturates at 5.
	pops := []string{"amsix", "seattle", "phoenix"}
	accepted := 0
	for i := 0; i < 10; i++ {
		res := en.EvaluateAnnouncement("exp1", pops[i%3], prefix, originAttrs(61574))
		if res.Action == ActionAccept {
			accepted++
		}
		now = now.Add(time.Second)
	}
	if accepted != 5 {
		t.Errorf("accepted %d updates, want the AS-wide cap of 5", accepted)
	}
	// Other prefixes have their own global budget.
	if res := en.EvaluateAnnouncement("exp1", "amsix", pfx("184.164.225.0/24"), originAttrs(61574)); res.Action != ActionAccept {
		t.Error("unrelated prefix blocked by another prefix's budget")
	}
	// The window slides for the global counter too.
	now = now.Add(25 * time.Hour)
	if res := en.EvaluateAnnouncement("exp1", "amsix", prefix, originAttrs(61574)); res.Action != ActionAccept {
		t.Error("global budget did not recover")
	}
}

// TestAuditEvictionKeepsRecent pins the cap-eviction contract: when the
// log fills, the OLDEST half is discarded and every entry after the cut
// survives in order — attribution needs recency. The eviction is also
// visible to operators through policy_audit_evicted_total.
func TestAuditEvictionKeepsRecent(t *testing.T) {
	en := NewEngine(platformASN)
	en.auditCap = 100
	evictedBefore := auditEvicted.Value()

	for i := 0; i < 150; i++ {
		en.record(AuditEntry{Experiment: fmt.Sprintf("e%d", i)})
	}

	// Cap hit at entry 100: the oldest 50 go, then growth resumes.
	log := en.Audit()
	if len(log) != 100 {
		t.Fatalf("audit length = %d, want 100", len(log))
	}
	if got := log[0].Experiment; got != "e50" {
		t.Errorf("oldest surviving entry = %s, want e50 (oldest half evicted)", got)
	}
	if got := log[len(log)-1].Experiment; got != "e149" {
		t.Errorf("newest entry = %s, want e149 (most recent always survive)", got)
	}
	for i, e := range log {
		if want := fmt.Sprintf("e%d", 50+i); e.Experiment != want {
			t.Fatalf("log[%d] = %s, want %s (contiguous, newest last)", i, e.Experiment, want)
		}
	}
	if got := auditEvicted.Value() - evictedBefore; got != 50 {
		t.Errorf("policy_audit_evicted_total advanced by %d, want 50", got)
	}
}

// TestRateLimitDayBoundary exercises the sliding window exactly at the
// 24-hour boundary: updates spread one per 10-minute slot fill the 144
// budget; the update at slot 144 lands exactly 24h after the first,
// which is still inside the window (the cutoff is exclusive), so it is
// rejected; one ε past 24h after the first slides it out and is
// accepted again.
func TestRateLimitDayBoundary(t *testing.T) {
	en := newTestEngine()
	start := time.Unix(1700000000, 0)
	now := start
	en.Now = func() time.Time { return now }
	prefix := pfx("184.164.224.0/24")

	for i := 0; i < DefaultDailyUpdateLimit; i++ {
		now = start.Add(time.Duration(i) * 10 * time.Minute)
		if res := en.EvaluateAnnouncement("exp1", "amsix", prefix, originAttrs(61574)); res.Action != ActionAccept {
			t.Fatalf("slot %d rejected: %v", i, res.Reasons)
		}
	}

	// Slot 144 is exactly start+24h: the first update is not yet Before
	// the cutoff, so the window still holds all 144.
	now = start.Add(24 * time.Hour)
	if res := en.EvaluateAnnouncement("exp1", "amsix", prefix, originAttrs(61574)); res.Action != ActionReject {
		t.Fatal("update at the 144th slot (exactly 24h) accepted; window must still be full")
	}
	if got := en.RateBudgetRemaining(prefix, "amsix"); got != 0 {
		t.Errorf("budget at the boundary = %d, want 0", got)
	}

	// 24h+ε after the first update it leaves the window.
	now = start.Add(24*time.Hour + time.Second)
	if res := en.EvaluateAnnouncement("exp1", "amsix", prefix, originAttrs(61574)); res.Action != ActionAccept {
		t.Fatalf("update 24h+ε after the first rejected: %v", res.Reasons)
	}
}

func TestAuditSinceReadsOnlyNewEntries(t *testing.T) {
	en := NewEngine(47065)
	en.auditCap = 4
	p := netip.MustParsePrefix("184.164.224.0/24")
	if got, seq := en.AuditSince(0); got != nil || seq != 0 {
		t.Fatalf("empty log: %v, seq %d", got, seq)
	}
	for i := 0; i < 3; i++ {
		en.EvaluateWithdraw(fmt.Sprintf("exp%d", i), "amsix", p)
	}
	got, seq := en.AuditSince(1)
	if seq != 3 || len(got) != 2 || got[0].Experiment != "exp1" || got[1].Experiment != "exp2" {
		t.Fatalf("since 1: %v, seq %d; want exp1, exp2 at seq 3", got, seq)
	}
	if got, _ := en.AuditSince(seq); got != nil {
		t.Fatalf("nothing new since %d, got %v", seq, got)
	}
	// Entries evicted in between are gone; the survivors still come back.
	for i := 3; i < 8; i++ {
		en.EvaluateWithdraw(fmt.Sprintf("exp%d", i), "amsix", p)
	}
	got, seq = en.AuditSince(3)
	if seq != 8 || len(got) == 0 || got[len(got)-1].Experiment != "exp7" || len(got) != len(en.Audit()) {
		t.Fatalf("after eviction: %v, seq %d; want the retained tail ending exp7 at seq 8", got, seq)
	}
}

// RateBudgetRemaining reports how many updates remain in the current
// 24-hour window for (prefix, pop).
func (en *Engine) RateBudgetRemaining(prefix netip.Prefix, pop string) int {
	en.mu.Lock()
	defer en.mu.Unlock()
	key := rateKey{prefix, pop}
	cutoff := en.Now().Add(-24 * time.Hour)
	n := 0
	for _, t := range en.rate[key] {
		if !t.Before(cutoff) {
			n++
		}
	}
	if rem := en.dailyLimit() - n; rem > 0 {
		return rem
	}
	return 0
}
