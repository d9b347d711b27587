// Package inet simulates an AS-level Internet: a topology of autonomous
// systems with customer/provider and peer relationships, valley-free
// (Gao-Rexford) route propagation, per-AS best-route selection, and
// customer-cone computation.
//
// The paper evaluates Peering against the real Internet (923 peers, 12
// transits, reach to every AS via providers, §4.2); this package is the
// substitute substrate: vBGP's neighbors are ASes in a synthetic
// topology, and experiments' announcements propagate through it under
// the same export rules real networks apply.
package inet

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"

	"repro/internal/rpki"
)

// Rel is the business relationship a route was learned over.
type Rel int

// Relationship kinds, ordered by preference (customer routes are most
// preferred, provider routes least — Gao-Rexford).
const (
	RelCustomer Rel = iota // learned from a customer
	RelPeer                // learned from a settlement-free peer
	RelProvider            // learned from a transit provider
	RelOrigin              // originated locally
)

// String names the relationship.
func (r Rel) String() string {
	switch r {
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	case RelProvider:
		return "provider"
	case RelOrigin:
		return "origin"
	}
	return fmt.Sprintf("Rel(%d)", int(r))
}

// Route is one AS's chosen route toward a prefix.
type Route struct {
	Prefix netip.Prefix
	// Path is the AS path, nearest AS first, origin last.
	Path []uint32
	// LearnedOver is how the AS learned the route.
	LearnedOver Rel
}

// AS is one autonomous system.
type AS struct {
	ASN uint32
	// Providers, Customers, Peers hold neighbor ASNs by relationship
	// (from this AS's point of view).
	Providers []uint32
	Customers []uint32
	Peers     []uint32
	// Originated prefixes.
	Originated []netip.Prefix
	// Type labels the AS for the §4.2 peer-type statistics
	// ("transit", "access", "content", "education", "enterprise", ...).
	Type string

	// routes is the AS's chosen route per prefix.
	routes map[netip.Prefix]*Route
	// importFilter, when set, vets every route before import.
	importFilter func(prefix netip.Prefix, path []uint32) bool
	// rov marks the AS as performing RPKI route origin validation:
	// routes whose origin is Invalid against the topology's validator
	// are rejected on import.
	rov bool
	// peerlocks are the AS's route-leak protection rules.
	peerlocks []rpki.Peerlock
}

// Topology is a mutable AS graph with incremental route propagation.
// All methods are safe for concurrent use.
type Topology struct {
	mu   sync.RWMutex
	ases map[uint32]*AS
	// validator backs ROV-deploying ASes (see rov.go).
	validator rpki.Validator
	// rovDrops / leakDrops count import rejections by ROV and Peerlock
	// rules across all ASes.
	rovDrops  uint64
	leakDrops uint64
	// coneCache memoizes CustomerCone results; any mutation of the
	// customer graph (AddAS, AddTransit) invalidates it wholesale.
	coneCache map[uint32][]uint32
}

// NewTopology creates an empty topology.
func NewTopology() *Topology {
	return &Topology{ases: make(map[uint32]*AS)}
}

// AddAS creates an AS. Adding an existing ASN returns the existing AS.
func (t *Topology) AddAS(asn uint32, typ string) *AS {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a, ok := t.ases[asn]; ok {
		return a
	}
	a := &AS{ASN: asn, Type: typ, routes: make(map[netip.Prefix]*Route)}
	t.ases[asn] = a
	t.coneCache = nil
	return a
}

// AS returns the AS with the given number, or nil.
func (t *Topology) AS(asn uint32) *AS {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.ases[asn]
}

// Len returns the number of ASes.
func (t *Topology) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.ases)
}

// ASNs returns all AS numbers, sorted.
func (t *Topology) ASNs() []uint32 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]uint32, 0, len(t.ases))
	for asn := range t.ases {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AddTransit links customer to provider. Both ASes must exist.
func (t *Topology) AddTransit(customer, provider uint32) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, p := t.ases[customer], t.ases[provider]
	if c == nil || p == nil {
		return fmt.Errorf("inet: unknown AS in transit link %d->%d", customer, provider)
	}
	if hasASN(c.Providers, provider) {
		return nil
	}
	c.Providers = append(c.Providers, provider)
	p.Customers = append(p.Customers, customer)
	t.coneCache = nil
	return nil
}

// AddPeering links two ASes as settlement-free peers.
func (t *Topology) AddPeering(a, b uint32) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	x, y := t.ases[a], t.ases[b]
	if x == nil || y == nil {
		return fmt.Errorf("inet: unknown AS in peering %d--%d", a, b)
	}
	if hasASN(x.Peers, b) {
		return nil
	}
	x.Peers = append(x.Peers, b)
	y.Peers = append(y.Peers, a)
	return nil
}

func hasASN(s []uint32, asn uint32) bool {
	for _, a := range s {
		if a == asn {
			return true
		}
	}
	return false
}

// Originate announces a prefix from an AS and propagates it to
// convergence under valley-free export rules.
func (t *Topology) Originate(asn uint32, prefix netip.Prefix) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.ases[asn]
	if a == nil {
		return fmt.Errorf("inet: unknown AS %d", asn)
	}
	prefix = prefix.Masked()
	if !hasPrefix(a.Originated, prefix) {
		a.Originated = append(a.Originated, prefix)
	}
	a.routes[prefix] = &Route{Prefix: prefix, Path: []uint32{asn}, LearnedOver: RelOrigin}
	t.propagateLocked(prefix)
	return nil
}

// OriginateWithPath announces a prefix from an AS with a caller-supplied
// AS path (supporting poisoned or prepended announcements injected by
// the platform on behalf of experiments). The path's first element must
// be asn.
func (t *Topology) OriginateWithPath(asn uint32, prefix netip.Prefix, path []uint32) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.ases[asn]
	if a == nil {
		return fmt.Errorf("inet: unknown AS %d", asn)
	}
	if len(path) == 0 || path[0] != asn {
		return fmt.Errorf("inet: injected path must start with AS%d", asn)
	}
	prefix = prefix.Masked()
	if !hasPrefix(a.Originated, prefix) {
		a.Originated = append(a.Originated, prefix)
	}
	a.routes[prefix] = &Route{Prefix: prefix, Path: append([]uint32(nil), path...), LearnedOver: RelOrigin}
	t.propagateLocked(prefix)
	return nil
}

func hasPrefix(s []netip.Prefix, p netip.Prefix) bool {
	for _, have := range s {
		if have == p {
			return true
		}
	}
	return false
}

// Withdraw removes an AS's origination of a prefix and re-converges.
func (t *Topology) Withdraw(asn uint32, prefix netip.Prefix) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.ases[asn]
	if a == nil {
		return fmt.Errorf("inet: unknown AS %d", asn)
	}
	prefix = prefix.Masked()
	for i, have := range a.Originated {
		if have == prefix {
			a.Originated = append(a.Originated[:i], a.Originated[i+1:]...)
			break
		}
	}
	delete(a.routes, prefix)
	// Recompute the prefix from scratch: clear every AS's route, then
	// re-propagate from remaining originators.
	var originators []*AS
	for _, other := range t.ases {
		if other.routes[prefix] != nil && other.routes[prefix].LearnedOver != RelOrigin {
			delete(other.routes, prefix)
		}
		if hasPrefix(other.Originated, prefix) {
			originators = append(originators, other)
		}
	}
	_ = originators
	t.propagateLocked(prefix)
	return nil
}

// relToward returns how dst would classify a route arriving from src.
func relToward(src, dst *AS) Rel {
	if hasASN(dst.Customers, src.ASN) {
		return RelCustomer
	}
	if hasASN(dst.Peers, src.ASN) {
		return RelPeer
	}
	return RelProvider
}

// exportable reports whether a route learned over rel may be exported to
// a neighbor of kind nbrRel (valley-free): routes from customers (or
// originated) go to everyone; routes from peers and providers go only to
// customers.
func exportable(learned Rel, nbrRel Rel) bool {
	if learned == RelCustomer || learned == RelOrigin {
		return true
	}
	return nbrRel == RelCustomer
}

// better reports whether candidate beats incumbent at an AS:
// Gao-Rexford preference (customer > peer > provider), then shortest
// path, then lexicographically lowest path for determinism. Both paths
// start with the deciding AS itself, so the comparison effectively
// starts at the first hop; the total order makes converged routes (and
// therefore anycast catchments) independent of propagation order.
func better(cand, inc *Route) bool {
	if inc == nil {
		return true
	}
	if cand.LearnedOver != inc.LearnedOver {
		return cand.LearnedOver < inc.LearnedOver
	}
	if len(cand.Path) != len(inc.Path) {
		return len(cand.Path) < len(inc.Path)
	}
	for i := range cand.Path {
		if cand.Path[i] != inc.Path[i] {
			return cand.Path[i] < inc.Path[i]
		}
	}
	return false
}

// propagateLocked runs route propagation for one prefix to convergence.
// Classic synchronous Bellman-Ford-style iteration with a work queue.
func (t *Topology) propagateLocked(prefix netip.Prefix) {
	// Seed the queue with every AS that currently has a route.
	var queue []*AS
	for _, a := range t.ases {
		if a.routes[prefix] != nil {
			queue = append(queue, a)
		}
	}
	for len(queue) > 0 {
		src := queue[0]
		queue = queue[1:]
		route := src.routes[prefix]
		if route == nil {
			continue
		}
		neighbors := make([]uint32, 0, len(src.Customers)+len(src.Peers)+len(src.Providers))
		neighbors = append(neighbors, src.Customers...)
		neighbors = append(neighbors, src.Peers...)
		neighbors = append(neighbors, src.Providers...)
		for _, nbr := range neighbors {
			dst := t.ases[nbr]
			if dst == nil {
				continue
			}
			// Export policy at src: how does src classify dst?
			dstRelAtSrc := relToward(dst, src)
			if !exportable(route.LearnedOver, dstRelAtSrc) {
				continue
			}
			// Loop prevention.
			if hasASN(route.Path, dst.ASN) {
				continue
			}
			cand := &Route{
				Prefix:      prefix,
				Path:        append([]uint32{dst.ASN}, route.Path...),
				LearnedOver: relToward(src, dst),
			}
			// Import filter at the receiver (Appendix A's stale-filter
			// scenario).
			if dst.importFilter != nil && !dst.importFilter(prefix, cand.Path) {
				continue
			}
			// Security filters at the receiver: ROV + Peerlock (rov.go).
			if !t.admitSecureLocked(dst, prefix, cand.Path) {
				continue
			}
			// The receiving AS keeps its own origination.
			if inc := dst.routes[prefix]; inc != nil && inc.LearnedOver == RelOrigin {
				continue
			} else if better(cand, inc) {
				dst.routes[prefix] = cand
				queue = append(queue, dst)
			}
		}
	}
}

// RouteAt returns the route AS asn uses toward prefix, or nil.
func (t *Topology) RouteAt(asn uint32, prefix netip.Prefix) *Route {
	t.mu.RLock()
	defer t.mu.RUnlock()
	a := t.ases[asn]
	if a == nil {
		return nil
	}
	return a.routes[prefix.Masked()]
}

// RoutesAt returns every route AS asn holds, sorted by prefix.
func (t *Topology) RoutesAt(asn uint32) []*Route {
	t.mu.RLock()
	defer t.mu.RUnlock()
	a := t.ases[asn]
	if a == nil {
		return nil
	}
	out := make([]*Route, 0, len(a.routes))
	for _, rt := range a.routes {
		out = append(out, rt)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Prefix.String() < out[j].Prefix.String()
	})
	return out
}

// Reachable reports whether AS asn has any route to prefix.
func (t *Topology) Reachable(asn uint32, prefix netip.Prefix) bool {
	return t.RouteAt(asn, prefix) != nil
}

// CustomerCone returns the set of ASes in asn's customer cone (asn
// itself included): the ASes reachable by following only customer edges
// downward. Announcements made to a peer reach the peer's customer cone
// (paper §4.2).
//
// Results are memoized — population placement and catchment sweeps call
// this for every AS, repeatedly — and the cache is invalidated whenever
// the customer graph mutates (AddAS, AddTransit). Callers receive a
// fresh copy and may modify it freely.
func (t *Topology) CustomerCone(asn uint32) []uint32 {
	t.mu.RLock()
	cached, ok := t.coneCache[asn]
	t.mu.RUnlock()
	if ok {
		return append([]uint32(nil), cached...)
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if cached, ok := t.coneCache[asn]; ok {
		return append([]uint32(nil), cached...)
	}
	cone := t.customerConeLocked(asn)
	if t.coneCache == nil {
		t.coneCache = make(map[uint32][]uint32)
	}
	t.coneCache[asn] = cone
	return append([]uint32(nil), cone...)
}

// customerConeLocked computes the cone by BFS over customer edges.
func (t *Topology) customerConeLocked(asn uint32) []uint32 {
	seen := map[uint32]bool{asn: true}
	queue := []uint32{asn}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		a := t.ases[cur]
		if a == nil {
			continue
		}
		for _, c := range a.Customers {
			if !seen[c] {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
	out := make([]uint32, 0, len(seen))
	for asn := range seen {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TypeCounts returns how many ASes carry each Type label.
func (t *Topology) TypeCounts() map[string]int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[string]int)
	for _, a := range t.ases {
		out[a.Type]++
	}
	return out
}
