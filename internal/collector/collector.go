// Package collector implements a passive BGP route collector in the
// style of RouteViews and RIPE RIS (paper §8): it peers with a router,
// records every update with a timestamp, maintains the resulting RIB,
// and serializes both to a compact MRT-inspired binary format.
//
// The paper positions Peering as complementary to collectors — they
// observe, Peering interacts — and Peering experiments routinely consume
// collector feeds for ground truth. Attaching a collector to a vBGP PoP
// reproduces that measurement loop inside the testbed.
package collector

import (
	"net"
	"net/netip"
	"sort"
	"sync"
	"time"

	"repro/internal/bgp"
	"repro/internal/rib"
	"repro/internal/telemetry"
)

// Recorded-event counters by kind, across every collector in the
// process.
var (
	announcesRecorded *telemetry.Counter
	withdrawsRecorded *telemetry.Counter
)

func init() {
	reg := telemetry.Default()
	announcesRecorded = reg.Counter("collector_events_total", telemetry.L("kind", "announce"))
	withdrawsRecorded = reg.Counter("collector_events_total", telemetry.L("kind", "withdraw"))
}

// EventKind distinguishes recorded events.
type EventKind uint8

// Event kinds.
const (
	KindAnnounce EventKind = 1
	KindWithdraw EventKind = 2
)

// Event is one recorded routing event.
type Event struct {
	// Time the collector observed the event.
	Time time.Time
	// Kind is announce or withdraw.
	Kind EventKind
	// Prefix affected.
	Prefix netip.Prefix
	// PathID is the ADD-PATH identifier on the collecting session.
	PathID uint32
	// ASPath of an announcement (nil for withdrawals).
	ASPath []uint32
	// NextHop of an announcement.
	NextHop netip.Addr
	// Communities attached to an announcement.
	Communities []bgp.Community
}

// Collector is one collecting session.
type Collector struct {
	// Name identifies the collector ("route-views.amsix").
	Name string

	sess *bgp.Session

	mu     sync.Mutex
	events []Event
	table  *rib.Table
	// Now is the clock, injectable for deterministic tests.
	Now func() time.Time
}

// New creates a collector that peers over conn with a router speaking
// from platformASN. The collector advertises ADD-PATH reception so it
// records every path, exactly as modern collectors do.
func New(name string, localASN, platformASN uint32, localID netip.Addr, conn net.Conn) *Collector {
	c := &Collector{
		Name:  name,
		table: rib.NewTable(name),
		Now:   time.Now,
	}
	c.sess = bgp.NewSession(conn, bgp.Config{
		LocalASN:  localASN,
		RemoteASN: platformASN,
		LocalID:   localID,
		Families:  []bgp.AFISAFI{bgp.IPv4Unicast, bgp.IPv6Unicast},
		AddPath: map[bgp.AFISAFI]uint8{
			bgp.IPv4Unicast: bgp.AddPathReceive,
			bgp.IPv6Unicast: bgp.AddPathReceive,
		},
		OnUpdate: c.record,
	})
	go c.sess.Run()
	return c
}

// Session exposes the collecting BGP session.
func (c *Collector) Session() *bgp.Session { return c.sess }

// Close stops collecting.
func (c *Collector) Close() { c.sess.Close() }

func (c *Collector) record(u *bgp.Update) {
	now := c.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range append(append([]bgp.NLRI(nil), u.Withdrawn...), u.MPUnreach...) {
		c.events = append(c.events, Event{
			Time: now, Kind: KindWithdraw, Prefix: w.Prefix, PathID: uint32(w.ID),
		})
		withdrawsRecorded.Inc()
		c.table.Withdraw(w.Prefix, c.Name, w.ID)
	}
	store := func(nlri bgp.NLRI) {
		if u.Attrs == nil {
			return
		}
		e := Event{
			Time: now, Kind: KindAnnounce, Prefix: nlri.Prefix, PathID: uint32(nlri.ID),
			ASPath:      append([]uint32(nil), u.Attrs.ASPathFlat()...),
			NextHop:     u.Attrs.NextHop,
			Communities: append([]bgp.Community(nil), u.Attrs.Communities...),
		}
		if nlri.Prefix.Addr().Is6() {
			e.NextHop = u.Attrs.MPNextHop
		}
		c.events = append(c.events, e)
		announcesRecorded.Inc()
		c.table.Add(&rib.Path{
			Prefix: nlri.Prefix, ID: nlri.ID, Peer: c.Name,
			Attrs: u.Attrs.Clone(), EBGP: true, Seq: rib.NextSeq(),
		})
	}
	for _, nlri := range u.NLRI {
		store(nlri)
	}
	for _, nlri := range u.MPReach {
		store(nlri)
	}
}

// Events returns the recorded events in arrival order, optionally
// bounded to [from, to) (zero times mean unbounded).
func (c *Collector) Events(from, to time.Time) []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Event
	for _, e := range c.events {
		if !from.IsZero() && e.Time.Before(from) {
			continue
		}
		if !to.IsZero() && !e.Time.Before(to) {
			continue
		}
		out = append(out, e)
	}
	return out
}

// History returns the events affecting a prefix, in order — the per-
// prefix timeline tools like BGPStream reconstruct.
func (c *Collector) History(prefix netip.Prefix) []Event {
	prefix = prefix.Masked()
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Event
	for _, e := range c.events {
		if e.Prefix == prefix {
			out = append(out, e)
		}
	}
	return out
}

// Snapshot returns the current best paths per prefix, sorted by prefix —
// a TABLE_DUMP-style RIB view.
func (c *Collector) Snapshot() []Event {
	var out []Event
	c.table.WalkBest(func(prefix netip.Prefix, best *rib.Path) bool {
		out = append(out, Event{
			Kind: KindAnnounce, Prefix: prefix, PathID: uint32(best.ID),
			ASPath:      best.Attrs.ASPathFlat(),
			NextHop:     best.NextHop(),
			Communities: best.Attrs.Communities,
		})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.String() < out[j].Prefix.String() })
	return out
}
