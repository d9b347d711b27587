package history

import (
	"fmt"
	"net/netip"
	"sort"
	"time"
)

// RouteState is one route alive at a queried instant: the replayed
// outcome of the event stream for a (peer, pathID) key, with the set of
// vantage points that held it.
type RouteState struct {
	Prefix  netip.Prefix `json:"prefix"`
	Peer    string       `json:"peer"`
	PeerASN uint32       `json:"peerASN,omitempty"`
	PathID  uint32       `json:"pathID"`
	NextHop netip.Addr   `json:"nextHop,omitempty"`
	ASPath  []uint32     `json:"asPath,omitempty"`
	// Since is the time of the announcement that established the state.
	Since time.Time `json:"since"`
	// Vantages names the PoPs/collectors holding the route at the
	// queried instant.
	Vantages []string `json:"vantages"`
}

// Origin returns the route's origin AS (the last AS-path hop), or 0.
func (rs RouteState) Origin() uint32 {
	if len(rs.ASPath) == 0 {
		return 0
	}
	return rs.ASPath[len(rs.ASPath)-1]
}

// Divergence is one route visible at exactly one of two compared PoPs.
type Divergence struct {
	Prefix netip.Prefix `json:"prefix"`
	Peer   string       `json:"peer"`
	PathID uint32       `json:"pathID"`
	ASPath []uint32     `json:"asPath,omitempty"`
	Origin uint32       `json:"origin,omitempty"`
	// OnlyAt names the PoP that holds the route; the other does not.
	OnlyAt string `json:"onlyAt"`
}

// Event is one timeline entry returned by Between: a stored record with
// its vantage bitmap expanded to names.
type Event struct {
	Record
	// VantageNames expands Record.Vantage against the store's table.
	VantageNames []string `json:"vantages"`
}

// eventsFor collects every record for an exact prefix across the log
// (sealed segments in sequence order, then the active segment), in
// stored — and therefore time — order. Callers hold s.mu.
func (s *Store) eventsForLocked(prefix netip.Prefix) ([]Event, error) {
	var out []Event
	segs := make([]*segment, 0, len(s.sealed)+1)
	segs = append(segs, s.sealed...)
	segs = append(segs, s.active)
	for _, seg := range segs {
		offs, ok := seg.index[prefix]
		if !ok {
			continue
		}
		vantages := seg.vantages
		if !seg.sealed {
			vantages = s.vantages
		}
		for _, off := range offs {
			r, err := seg.recordAt(off)
			if err != nil {
				return nil, fmt.Errorf("history: segment %d: %w", seg.seq, err)
			}
			ev := Event{Record: r}
			for i, v := range vantages {
				if r.Vantage&(1<<uint(i)) != 0 {
					ev.VantageNames = append(ev.VantageNames, v)
				}
			}
			out = append(out, ev)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out, nil
}

// Between returns the stored route events for prefix with timestamps in
// [t0, t1], in time order.
func (s *Store) Between(prefix netip.Prefix, t0, t1 time.Time) ([]Event, error) {
	defer s.met.observeQuery(s.met.queryBetween, time.Now())
	s.mu.Lock()
	defer s.mu.Unlock()
	all, err := s.eventsForLocked(prefix)
	if err != nil {
		return nil, err
	}
	out := all[:0]
	for _, ev := range all {
		if ev.Time.Before(t0) || ev.Time.After(t1) {
			continue
		}
		out = append(out, ev)
	}
	return out, nil
}

// stateKey identifies one replayed route: events with the same peer and
// path ID describe the same route's lifecycle.
type stateKey struct {
	peer   string
	pathID uint32
}

// stateAtLocked replays prefix's events up to t. Callers hold s.mu.
func (s *Store) stateAtLocked(prefix netip.Prefix, t time.Time) ([]RouteState, error) {
	events, err := s.eventsForLocked(prefix)
	if err != nil {
		return nil, err
	}
	type live struct {
		rs      RouteState
		vantage uint64
	}
	state := make(map[stateKey]*live)
	for _, ev := range events {
		if ev.Time.After(t) {
			break
		}
		k := stateKey{ev.Peer, ev.PathID}
		if ev.Withdraw {
			if l, ok := state[k]; ok {
				l.vantage &^= ev.Vantage
				if l.vantage == 0 {
					delete(state, k)
				}
			}
			continue
		}
		l, ok := state[k]
		if !ok {
			l = &live{}
			state[k] = l
		}
		l.vantage |= ev.Vantage
		l.rs = RouteState{
			Prefix: ev.Prefix, Peer: ev.Peer, PeerASN: ev.PeerASN,
			PathID: ev.PathID, NextHop: ev.NextHop, ASPath: ev.ASPath,
			Since: ev.Time,
		}
	}
	out := make([]RouteState, 0, len(state))
	for _, l := range state {
		l.rs.Vantages = s.vantageNamesLocked(l.vantage)
		out = append(out, l.rs)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Peer != out[j].Peer {
			return out[i].Peer < out[j].Peer
		}
		return out[i].PathID < out[j].PathID
	})
	return out, nil
}

// vantageNamesLocked expands a bitmap against the live table (a
// superset of every sealed segment's table).
func (s *Store) vantageNamesLocked(bitmap uint64) []string {
	var out []string
	for i, v := range s.vantages {
		if bitmap&(1<<uint(i)) != 0 {
			out = append(out, v)
		}
	}
	return out
}

// StateAt reconstructs the routes alive for prefix at time t: the
// platform's adj-RIB-in view of that prefix, replayed from the log.
// Exact-prefix semantics: query the /24 and the /25 separately to see a
// sub-prefix hijack against its victim.
func (s *Store) StateAt(prefix netip.Prefix, t time.Time) ([]RouteState, error) {
	defer s.met.observeQuery(s.met.queryState, time.Now())
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stateAtLocked(prefix, t)
}

func (s *Store) prefixesLocked() []netip.Prefix {
	seen := make(map[netip.Prefix]struct{})
	segs := make([]*segment, 0, len(s.sealed)+1)
	segs = append(segs, s.sealed...)
	segs = append(segs, s.active)
	for _, seg := range segs {
		for p := range seg.index {
			seen[p] = struct{}{}
		}
	}
	out := make([]netip.Prefix, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Addr() != b.Addr() {
			return a.Addr().Less(b.Addr())
		}
		return a.Bits() < b.Bits()
	})
	return out
}

// DiffPoPs reconstructs the state of every stored prefix at time t and
// reports the routes visible at exactly one of the two PoPs — the
// divergence report a hijack forensics run reads to localize where a
// rogue origin entered.
func (s *Store) DiffPoPs(popA, popB string, t time.Time) ([]Divergence, error) {
	defer s.met.observeQuery(s.met.queryDiff, time.Now())
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Divergence
	for _, prefix := range s.prefixesLocked() {
		states, err := s.stateAtLocked(prefix, t)
		if err != nil {
			return nil, err
		}
		for _, rs := range states {
			hasA, hasB := false, false
			for _, v := range rs.Vantages {
				switch v {
				case popA:
					hasA = true
				case popB:
					hasB = true
				}
			}
			if hasA == hasB {
				continue
			}
			only := popA
			if hasB {
				only = popB
			}
			out = append(out, Divergence{
				Prefix: rs.Prefix, Peer: rs.Peer, PathID: rs.PathID,
				ASPath: rs.ASPath, Origin: rs.Origin(), OnlyAt: only,
			})
		}
	}
	return out, nil
}
