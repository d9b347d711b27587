package peering

import (
	"net/netip"

	"repro/internal/collector"
)

// AttachCollector peers a passive route collector with a PoP's router
// (the RouteViews/RIS role, §8): the collector receives every route the
// PoP knows via ADD-PATH and records the update stream for offline
// analysis. Collectors never announce; any announcement they might send
// is rejected by enforcement like any unregistered experiment's.
func (pop *PoP) AttachCollector(name string, collectorASN uint32) (*collector.Collector, error) {
	cr, cc := newConnPair()
	if _, err := pop.Router.ConnectExperiment("collector:"+name, collectorASN, cr); err != nil {
		return nil, err
	}
	col := collector.New(name, collectorASN, pop.platform.ASN(),
		netip.AddrFrom4([4]byte{128, 223, 51, byte(len(name)%250 + 1)}), cc)
	return col, nil
}
