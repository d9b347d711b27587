package telemetry

import (
	"fmt"
	"net/netip"
	"time"
)

// EventKind distinguishes monitoring events, mirroring the BMP message
// types of RFC 7854 (Peer Up, Peer Down, Route Monitoring) that
// PEERING's production collectors consume.
type EventKind uint8

// Event kinds.
const (
	EventPeerUp          EventKind = 1
	EventPeerDown        EventKind = 2
	EventRouteMonitoring EventKind = 3
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventPeerUp:
		return "peer-up"
	case EventPeerDown:
		return "peer-down"
	case EventRouteMonitoring:
		return "route-monitoring"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one monitoring event emitted by a vBGP router. Field
// relevance depends on Kind: RouteMonitoring events carry the route
// fields, PeerDown carries Reason.
type Event struct {
	Kind EventKind
	// Time the router emitted the event.
	Time time.Time
	// PoP is the emitting router's name.
	PoP string
	// Peer names the session the event concerns: a neighbor name, an
	// "exp:" experiment, or a "mesh:" backbone peer.
	Peer string
	// PeerASN is the peer's AS number (0 when unknown).
	PeerASN uint32

	// PathID is the route's ADD-PATH / platform identifier.
	PathID uint32
	// Prefix is the affected route (invalid when not a route event).
	Prefix netip.Prefix
	// NextHop of the announcement (invalid for withdrawals).
	NextHop netip.Addr
	// ASPath of the announcement, flattened.
	ASPath []uint32
	// Withdraw marks a RouteMonitoring withdrawal.
	Withdraw bool

	// Reason explains a PeerDown.
	Reason string
}

// String renders the event as one log line.
func (e Event) String() string {
	switch e.Kind {
	case EventRouteMonitoring:
		verb := "announce"
		if e.Withdraw {
			verb = "withdraw"
		}
		return fmt.Sprintf("%s pop=%s peer=%s %s %s id=%d path=%v",
			e.Kind, e.PoP, e.Peer, verb, e.Prefix, e.PathID, e.ASPath)
	case EventPeerDown:
		return fmt.Sprintf("%s pop=%s peer=%s reason=%q", e.Kind, e.PoP, e.Peer, e.Reason)
	default:
		return fmt.Sprintf("%s pop=%s peer=%s as%d", e.Kind, e.PoP, e.Peer, e.PeerASN)
	}
}
