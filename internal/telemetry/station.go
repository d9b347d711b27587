package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// PeerStatus is the station's view of one monitored session, keyed by
// (PoP, Peer) — the per-peer state a BMP station reconstructs from the
// event stream.
type PeerStatus struct {
	PoP  string
	Peer string
	ASN  uint32
	// Up is the last known session state.
	Up bool
	// UpCount and DownCount tally session transitions; DownCount > 1
	// means flapping.
	UpCount   uint64
	DownCount uint64
	// Announces and Withdraws count RouteMonitoring events — the
	// per-neighbor update/withdraw dynamics route-leak and community-
	// churn studies measure.
	Announces uint64
	Withdraws uint64
	// LastReason is the most recent PeerDown reason.
	LastReason string
	// LastSeen is the timestamp of the most recent event.
	LastSeen time.Time
	// Stats holds the latest StatsReport TLVs by type.
	Stats map[uint16]uint64
}

type peerKey struct {
	pop, peer string
}

// Station is the consumer half of the monitoring hook: it applies the
// event stream to per-peer state and renders operator reports. One
// station can watch every router of a platform.
type Station struct {
	mu        sync.Mutex
	peers     map[peerKey]*PeerStatus
	processed atomic.Uint64

	eventCounters [5]*Counter // by kind, index 1..4
}

// NewStation creates a station registering its counters against reg
// (nil selects Default()).
func NewStation(reg *Registry) *Station {
	if reg == nil {
		reg = Default()
	}
	s := &Station{peers: make(map[peerKey]*PeerStatus)}
	for k := EventPeerUp; k <= EventStatsReport; k++ {
		s.eventCounters[k] = reg.Counter("telemetry_station_events_total", L("kind", k.String()))
	}
	return s
}

// Handle applies one event to the station's state.
func (s *Station) Handle(e Event) {
	if e.Kind >= EventPeerUp && e.Kind <= EventStatsReport {
		s.eventCounters[e.Kind].Inc()
	}
	s.mu.Lock()
	key := peerKey{e.PoP, e.Peer}
	p := s.peers[key]
	if p == nil {
		p = &PeerStatus{PoP: e.PoP, Peer: e.Peer, Stats: make(map[uint16]uint64)}
		s.peers[key] = p
	}
	if e.PeerASN != 0 {
		p.ASN = e.PeerASN
	}
	if e.Time.After(p.LastSeen) {
		p.LastSeen = e.Time
	}
	switch e.Kind {
	case EventPeerUp:
		p.Up = true
		p.UpCount++
	case EventPeerDown:
		p.Up = false
		p.DownCount++
		p.LastReason = e.Reason
	case EventRouteMonitoring:
		if e.Withdraw {
			p.Withdraws++
		} else {
			p.Announces++
		}
	case EventStatsReport:
		for _, st := range e.Stats {
			p.Stats[st.Type] = st.Value
		}
	}
	s.mu.Unlock()
	s.processed.Add(1)
}

// Run consumes em's events until the emitter is closed and drained.
// Call in a goroutine.
func (s *Station) Run(em *Emitter) {
	for e := range em.Events() {
		s.Handle(e)
	}
}

// Processed returns how many events the station has applied.
func (s *Station) Processed() uint64 { return s.processed.Load() }

// Peers returns every monitored session, sorted by PoP then peer name.
func (s *Station) Peers() []PeerStatus {
	s.mu.Lock()
	out := make([]PeerStatus, 0, len(s.peers))
	for _, p := range s.peers {
		out = append(out, copyStatus(p))
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].PoP != out[j].PoP {
			return out[i].PoP < out[j].PoP
		}
		return out[i].Peer < out[j].Peer
	})
	return out
}

func copyStatus(p *PeerStatus) PeerStatus {
	out := *p
	out.Stats = make(map[uint16]uint64, len(p.Stats))
	for k, v := range p.Stats {
		out.Stats[k] = v
	}
	return out
}

// Report renders the per-peer state as an operator table.
func (s *Station) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-22s %-10s %5s %9s %9s %9s %10s\n",
		"pop", "peer", "asn", "state", "announces", "withdraws", "flaps", "routes")
	for _, p := range s.Peers() {
		state := "down"
		if p.Up {
			state = "up"
		}
		routes := "-"
		if r, ok := p.Stats[StatRoutesAdjIn]; ok {
			routes = fmt.Sprintf("%d", r)
		}
		flaps := uint64(0)
		if p.DownCount > 0 {
			flaps = p.DownCount
		}
		fmt.Fprintf(&b, "%-8s %-22s %-10d %5s %9d %9d %9d %10s\n",
			p.PoP, p.Peer, p.ASN, state, p.Announces, p.Withdraws, flaps, routes)
	}
	return b.String()
}
