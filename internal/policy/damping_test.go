package policy

import (
	"strings"
	"testing"
	"time"

	"repro/internal/guard"
)

func TestDampingSuppressesFlappingExperiment(t *testing.T) {
	en := newTestEngine()
	now := time.Unix(1700000000, 0)
	en.Now = func() time.Time { return now }
	clock := func() time.Time { return now }
	en.SetDamper(guard.NewDamper(guard.DampingConfig{HalfLife: time.Minute, Now: clock}))
	defer en.damper.Close()

	prefix := pfx("184.164.224.0/24")
	announce := func() Result { return en.EvaluateAnnouncement("exp1", "amsix", prefix, originAttrs(61574)) }
	withdraw := func() Result { return en.EvaluateWithdraw("exp1", "amsix", prefix) }

	// announce (free) + withdraw (1000) + announce (2000) + withdraw
	// (3000 → suppressed). Withdrawals themselves are never blocked.
	for i, res := range []Result{announce(), withdraw(), announce(), withdraw()} {
		if res.Action != ActionAccept {
			t.Fatalf("update %d rejected before suppression: %v", i, res.Reasons)
		}
	}
	res := announce()
	if res.Action != ActionReject {
		t.Fatal("announcement of suppressed route accepted")
	}
	if len(res.Reasons) == 0 || !strings.Contains(res.Reasons[0], "flap damping") {
		t.Fatalf("reasons = %v, want flap-damping verdict", res.Reasons)
	}
	// Withdrawals still pass while suppressed.
	if res := withdraw(); res.Action != ActionAccept {
		t.Fatalf("withdrawal blocked under suppression: %v", res.Reasons)
	}
	// Another experiment's use of an overlapping prefix is unaffected:
	// damping keys on (experiment, PoP), and so is the same experiment
	// at a different PoP.
	if res := en.EvaluateAnnouncement("exp1", "seattle", prefix, originAttrs(61574)); res.Action != ActionAccept {
		t.Fatalf("other PoP caught suppression: %v", res.Reasons)
	}
	// Decay below the reuse threshold releases the route.
	now = now.Add(10 * time.Minute)
	if res := announce(); res.Action != ActionAccept {
		t.Fatalf("announcement after decay rejected: %v", res.Reasons)
	}
}

func TestRateLimitRejectionReportsObservedCount(t *testing.T) {
	en := newTestEngine()
	now := time.Unix(1700000000, 0)
	en.Now = func() time.Time { return now }

	prefix := pfx("184.164.224.0/24")
	for i := 0; i < DefaultDailyUpdateLimit; i++ {
		if res := en.EvaluateAnnouncement("exp1", "amsix", prefix, originAttrs(61574)); res.Action != ActionAccept {
			t.Fatalf("update %d rejected: %v", i, res.Reasons)
		}
	}
	res := en.EvaluateAnnouncement("exp1", "amsix", prefix, originAttrs(61574))
	if res.Action != ActionReject {
		t.Fatal("over-budget update accepted")
	}
	// The verdict must state both the limit and the observed window
	// count so an operator sees the load, not just the line it crossed.
	want := "exceeds 144/day (observed 144 in window)"
	if len(res.Reasons) == 0 || !strings.Contains(res.Reasons[0], want) {
		t.Fatalf("reasons = %v, want substring %q", res.Reasons, want)
	}
	// The audit entry carries the same message.
	audit := en.Audit()
	last := audit[len(audit)-1]
	if len(last.Reasons) == 0 || !strings.Contains(last.Reasons[0], want) {
		t.Fatalf("audit reasons = %v, want substring %q", last.Reasons, want)
	}
}
