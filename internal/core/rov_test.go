package core

import (
	"net/netip"
	"testing"

	"repro/internal/bgp"
	"repro/internal/pipe"
	"repro/internal/rpki"
)

type validatorFunc func(prefix netip.Prefix, origin uint32) rpki.State

func (f validatorFunc) Validate(prefix netip.Prefix, origin uint32) rpki.State {
	return f(prefix, origin)
}

// TestValidationStatesPlateau: a neighbor churning through a thousand
// distinct prefixes, while an experiment is connected and a validator
// stamps every export, leaves one validation record per live route, and
// none once its table is flushed.
func TestValidationStatesPlateau(t *testing.T) {
	r := NewRouter(Config{Name: "rov-plateau", ASN: platformASN, RouterID: ip("198.51.100.1"),
		Validator: validatorFunc(func(netip.Prefix, uint32) rpki.State { return rpki.Valid })})
	n := sessionlessNeighbor(r, "N1", 1)
	// An experiment whose session never establishes: exports are built,
	// and stamped, for it all the same.
	conn, _ := pipe.New()
	sess, err := r.ConnectExperiment("X1", expASN, conn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	records := func() int {
		n.rovMu.Lock()
		defer n.rovMu.Unlock()
		return len(n.rovStates)
	}

	attrs := &bgp.PathAttrs{Origin: bgp.OriginIGP, HasOrigin: true, NextHop: ip("192.0.2.1"),
		ASPath: []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{n1ASN}}}}
	const live = 8
	peak := 0
	for i := 0; i < 1000; i++ {
		r.handleNeighborUpdate(n, &bgp.Update{Attrs: attrs, NLRI: []bgp.NLRI{{Prefix: tablePrefix(i)}}})
		peak = max(peak, records())
		if i >= live-1 {
			r.handleNeighborUpdate(n, &bgp.Update{Withdrawn: []bgp.NLRI{{Prefix: tablePrefix(i - live + 1)}}})
		}
	}
	if got := records(); peak > live || got != live-1 || n.Table.PathCount() != live-1 {
		t.Errorf("after 1000 distinct prefixes: peak %d records, %d left for %d live routes; want ≤ %d, %d",
			peak, got, n.Table.PathCount(), live, live-1)
	}
	r.neighborDown(n, nil)
	if got := records(); got != 0 {
		t.Errorf("after the neighbor's table was flushed: %d records left, want 0", got)
	}
}
