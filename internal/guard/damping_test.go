package guard

import (
	"net/netip"
	"sort"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic decay.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func key(peer, prefix string) Key {
	return Key{Peer: peer, Prefix: netip.MustParsePrefix(prefix)}
}

func TestDamperSuppressesAfterRepeatedFlaps(t *testing.T) {
	clk := newFakeClock()
	d := NewDamper(DampingConfig{HalfLife: time.Minute, Now: clk.Now})
	defer d.Close()
	k := key("n1", "10.0.0.0/24")

	// First announcement is free.
	if sup, p := d.Announce(k); sup || p != 0 {
		t.Fatalf("first announce: suppressed=%v penalty=%v, want free", sup, p)
	}
	// withdraw (1000) + announce (2000): churning but not yet suppressed.
	if sup, _ := d.Withdraw(k); sup {
		t.Fatal("suppressed after one flap")
	}
	if sup, p := d.Announce(k); sup || p != 2000 {
		t.Fatalf("after 2 flaps: suppressed=%v penalty=%v", sup, p)
	}
	// Third flap crosses the default 3000 threshold.
	sup, p := d.Withdraw(k)
	if !sup || p != 3000 {
		t.Fatalf("after 3 flaps: suppressed=%v penalty=%v, want suppressed at 3000", sup, p)
	}
	if !d.Suppressed(k) {
		t.Fatal("Suppressed() disagrees")
	}
	if n := suppressedCount(d); n != 1 {
		t.Fatalf("suppressed count = %d, want 1", n)
	}
}

func TestDamperPenaltyDecaysAndReleases(t *testing.T) {
	clk := newFakeClock()
	d := NewDamper(DampingConfig{HalfLife: time.Minute, Now: clk.Now})
	defer d.Close()
	k := key("n1", "10.0.0.0/24")

	d.Announce(k)
	for i := 0; i < 2; i++ {
		d.Withdraw(k)
		d.Announce(k)
	}
	if !d.Suppressed(k) {
		t.Fatal("not suppressed after 4 flaps")
	}
	p0 := d.Penalty(k)

	// One half-life halves the penalty.
	clk.Advance(time.Minute)
	if p := d.Penalty(k); p < p0/2*0.99 || p > p0/2*1.01 {
		t.Fatalf("penalty after one half-life = %v, want ~%v", p, p0/2)
	}
	// Enough half-lives to cross the reuse threshold (750): 4000 → 500.
	clk.Advance(2 * time.Minute)
	if d.Suppressed(k) {
		t.Fatalf("still suppressed at penalty %v (reuse 750)", d.Penalty(k))
	}
	if n := suppressedCount(d); n != 0 {
		t.Fatalf("suppressed count = %d after release", n)
	}
}

func TestDamperMaxPenaltyCapsReuseTime(t *testing.T) {
	clk := newFakeClock()
	d := NewDamper(DampingConfig{HalfLife: time.Minute, Now: clk.Now})
	defer d.Close()
	k := key("n1", "10.0.0.0/24")

	d.Announce(k)
	for i := 0; i < 100; i++ {
		d.Withdraw(k)
		d.Announce(k)
	}
	if p, max := d.Penalty(k), d.Config().MaxPenalty; p != max {
		t.Fatalf("penalty = %v, want capped at %v", p, max)
	}
}

func TestDamperOnReuseFiresViaTimer(t *testing.T) {
	// Real clock: tiny half-life so the reuse timer fires quickly.
	released := make(chan Key, 1)
	d := NewDamper(DampingConfig{
		HalfLife: 20 * time.Millisecond,
		OnReuse:  func(k Key) { released <- k },
	})
	defer d.Close()
	k := key("n1", "10.0.0.0/24")

	d.Announce(k)
	d.Withdraw(k)
	d.Announce(k)
	d.Withdraw(k) // ~3000 minus sub-millisecond real-clock decay
	if sup, _ := d.Announce(k); !sup {
		t.Fatal("not suppressed after 4 flaps")
	}
	select {
	case got := <-released:
		if got != k {
			t.Fatalf("OnReuse(%v), want %v", got, k)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnReuse never fired")
	}
	if d.Suppressed(k) {
		t.Fatal("still suppressed after OnReuse")
	}
}

func TestDamperForgetsCooledRoutes(t *testing.T) {
	clk := newFakeClock()
	d := NewDamper(DampingConfig{HalfLife: time.Minute, Now: clk.Now})
	defer d.Close()
	k := key("n1", "10.0.0.0/24")

	d.Announce(k)
	d.Withdraw(k) // penalty 1000, withdrawn
	if d.Len() != 1 {
		t.Fatalf("Len = %d", d.Len())
	}
	// 750/8 ≈ 94: ~3.5 half-lives from 1000. Give it plenty.
	clk.Advance(10 * time.Minute)
	d.Suppressed(k) // any access prunes
	if d.Len() != 0 {
		t.Fatalf("cooled withdrawn route not pruned, Len = %d", d.Len())
	}
	// A fresh announcement after pruning is free again.
	if sup, p := d.Announce(k); sup || p != 0 {
		t.Fatalf("announce after cooldown: suppressed=%v penalty=%v", sup, p)
	}
}

func TestDamperWithdrawUnknownIsFree(t *testing.T) {
	d := NewDamper(DampingConfig{})
	defer d.Close()
	if sup, p := d.Withdraw(key("n1", "10.0.0.0/24")); sup || p != 0 {
		t.Fatalf("withdraw of unknown route charged: suppressed=%v penalty=%v", sup, p)
	}
	if d.Len() != 0 {
		t.Fatal("withdraw of unknown route created state")
	}
}

func TestDamperSuppressedRoutesSorted(t *testing.T) {
	clk := newFakeClock()
	d := NewDamper(DampingConfig{HalfLife: time.Minute, Now: clk.Now})
	defer d.Close()
	hot, warm := key("n1", "10.0.0.0/24"), key("n2", "10.0.1.0/24")
	for i, k := range []Key{hot, warm} {
		d.Announce(k)
		for j := 0; j < 3-i; j++ { // hot gets one extra flap pair
			d.Withdraw(k)
			d.Announce(k)
		}
	}
	routes := d.SuppressedRoutes()
	if len(routes) != 2 {
		t.Fatalf("SuppressedRoutes len = %d, want 2", len(routes))
	}
	if routes[0].Key != hot || routes[0].Penalty <= routes[1].Penalty {
		t.Fatalf("not sorted by descending penalty: %+v", routes)
	}
	if routes[0].ReuseIn <= routes[1].ReuseIn {
		t.Fatalf("hotter route should take longer to reuse: %+v", routes)
	}
}

// SuppressedRoute is one row of SuppressedRoutes: a withheld route,
// its penalty, and the time until decay releases it.
type SuppressedRoute struct {
	Key     Key
	Penalty float64
	ReuseIn time.Duration
}

// Penalty reports key's current (decayed) figure of merit.
func (d *Damper) Penalty(key Key) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.routes[key]
	if e == nil {
		return 0
	}
	d.decayLocked(key, e, d.cfg.Now())
	return e.penalty
}

// SuppressedRoutes lists every currently suppressed route, sorted by
// descending penalty.
func (d *Damper) SuppressedRoutes() []SuppressedRoute {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.cfg.Now()
	var out []SuppressedRoute
	for key, e := range d.routes {
		d.decayLocked(key, e, now)
		if e.suppressed {
			out = append(out, SuppressedRoute{Key: key, Penalty: e.penalty, ReuseIn: d.reuseDelay(e.penalty)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Penalty != out[j].Penalty {
			return out[i].Penalty > out[j].Penalty
		}
		return out[i].Key.String() < out[j].Key.String()
	})
	return out
}

// suppressedCount reports how many of d's routes are currently
// suppressed, bringing every penalty current first.
func suppressedCount(d *Damper) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.cfg.Now()
	n := 0
	for key, e := range d.routes {
		d.decayLocked(key, e, now)
		if e.suppressed {
			n++
		}
	}
	return n
}
