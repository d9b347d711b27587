package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/bgp"
)

// targetSet is the export policy of one announcement, parsed into sets:
// the reference the control-community scan (exportsTo) and strip
// (splitControls) are held to.
type targetSet struct {
	// allow, when non-empty, whitelists neighbor IDs.
	allow map[uint32]bool
	// deny blacklists neighbor IDs.
	deny map[uint32]bool
}

// parseTargets extracts the control communities addressed to platformASN
// from comms and returns the export policy along with the remaining
// (non-control) communities.
func parseTargets(platformASN uint32, comms []bgp.Community) (targetSet, []bgp.Community) {
	ts := targetSet{allow: map[uint32]bool{}, deny: map[uint32]bool{}}
	var rest []bgp.Community
	for _, c := range comms {
		if uint32(c.ASN()) != platformASN {
			rest = append(rest, c)
			continue
		}
		v := uint32(c.Value())
		switch {
		case v >= NoExportBase && v <= NoExportBase+maxNeighborID:
			ts.deny[v-NoExportBase] = true
		case v > 0:
			ts.allow[v] = true
		default:
			rest = append(rest, c)
		}
	}
	return ts, rest
}

// parseLargeTargets folds large-community controls (RFC 8092) into an
// existing target set, returning the remaining non-control large
// communities.
func parseLargeTargets(platformASN uint32, ts targetSet, large []bgp.LargeCommunity) (targetSet, []bgp.LargeCommunity) {
	var rest []bgp.LargeCommunity
	for _, c := range large {
		if c.Global != platformASN {
			rest = append(rest, c)
			continue
		}
		switch c.Local1 {
		case largeFnAnnounceTo:
			ts.allow[c.Local2] = true
		case largeFnNoExportTo:
			ts.deny[c.Local2] = true
		default:
			rest = append(rest, c)
		}
	}
	return ts, rest
}

// includes reports whether the neighbor with the given ID is an export
// target.
func (ts targetSet) includes(id uint32) bool {
	if ts.deny[id] {
		return false
	}
	if len(ts.allow) > 0 {
		return ts.allow[id]
	}
	return true
}

func TestParseTargetsWhitelistBlacklist(t *testing.T) {
	comms := []bgp.Community{
		AnnounceTo(platformASN, 3),
		NoExportTo(platformASN, 5),
		bgp.NewCommunity(3356, 70), // foreign: preserved
	}
	ts, rest := parseTargets(platformASN, comms)
	if !ts.allow[3] || !ts.deny[5] {
		t.Errorf("targets %+v", ts)
	}
	if len(rest) != 1 || rest[0] != bgp.NewCommunity(3356, 70) {
		t.Errorf("rest %v", rest)
	}
	if ts.includes(5) {
		t.Error("denied neighbor included")
	}
	if !ts.includes(3) {
		t.Error("whitelisted neighbor excluded")
	}
	if ts.includes(4) {
		t.Error("non-whitelisted neighbor included despite whitelist")
	}
}

func TestParseTargetsEmptyMeansAll(t *testing.T) {
	ts, _ := parseTargets(platformASN, nil)
	if !ts.includes(1) || !ts.includes(9998) {
		t.Error("empty targets should include every neighbor")
	}
	// Blacklist-only: everything but the denied.
	ts2, _ := parseTargets(platformASN, []bgp.Community{NoExportTo(platformASN, 7)})
	if ts2.includes(7) || !ts2.includes(8) {
		t.Error("blacklist semantics")
	}
}

// TestParseTargetsRoundTrip: the control communities an announcement is
// stored and relayed with decide every neighbor as the parsed set does,
// and the strip at neighbor export leaves none of them.
func TestParseTargetsRoundTrip(t *testing.T) {
	comms := []bgp.Community{
		AnnounceTo(platformASN, 1), AnnounceTo(platformASN, 2), NoExportTo(platformASN, 3),
	}
	ts, _ := parseTargets(platformASN, comms)
	relayed := &bgp.PathAttrs{Communities: comms}
	if rest, _, _ := splitControls(platformASN, relayed); len(rest.Communities) != 0 {
		t.Errorf("stripped controls left a remainder: %v", rest.Communities)
	}
	for id := uint32(1); id <= 4; id++ {
		if ts.includes(id) != exportsTo(platformASN, relayed, id) {
			t.Errorf("neighbor %d differs between the parsed set and the relayed communities", id)
		}
	}
}

// TestControlScanMatchesOracle holds the scan and the strip to the
// parsed target set on random mixes of whitelist and blacklist
// communities in both forms, with foreign ASNs (including a standard
// community whose ASN is a 4-byte platform ASN cut to 16 bits), unknown
// large-community functions and zero values, for a 2-byte and a 4-byte
// platform ASN.
func TestControlScanMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20191209))
	ids := []uint32{0, 1, 2, 3, 7, 9998, internalOnlyID, NoExportBase, 20000, 65535}
	pick := func() uint32 { return ids[rng.Intn(len(ids))] }
	for _, asn := range []uint32{platformASN, 4200000001} {
		for trial := 0; trial < 2000; trial++ {
			attrs := &bgp.PathAttrs{}
			for i := rng.Intn(6); i > 0; i-- {
				hi := uint16(asn)
				if rng.Intn(4) == 0 {
					hi = uint16(rng.Intn(1 << 16))
				}
				var v uint16
				switch rng.Intn(4) {
				case 0:
					v = uint16(pick())
				case 1:
					v = uint16(NoExportBase + pick()%(maxNeighborID+1))
				case 2:
					v = 0
				default:
					v = uint16(rng.Intn(1 << 16))
				}
				attrs.Communities = append(attrs.Communities, bgp.NewCommunity(hi, v))
			}
			for i := rng.Intn(4); i > 0; i-- {
				global := asn
				if rng.Intn(4) == 0 {
					global = rng.Uint32()
				}
				attrs.LargeCommunities = append(attrs.LargeCommunities,
					bgp.LargeCommunity{Global: global, Local1: uint32(rng.Intn(5)), Local2: pick()})
			}

			ts, rest := parseTargets(asn, attrs.Communities)
			ts, restLarge := parseLargeTargets(asn, ts, attrs.LargeCommunities)
			got, ctl, ctlLarge := splitControls(asn, attrs)
			if !slices.Equal(got.Communities, rest) || !slices.Equal(got.LargeCommunities, restLarge) {
				t.Fatalf("AS%d %v %v: strip kept %v %v, oracle %v %v", asn, attrs.Communities, attrs.LargeCommunities,
					got.Communities, got.LargeCommunities, rest, restLarge)
			}
			if len(ctl)+len(rest) != len(attrs.Communities) || len(ctlLarge)+len(restLarge) != len(attrs.LargeCommunities) {
				t.Fatalf("AS%d %v %v: strip split off %v %v", asn, attrs.Communities, attrs.LargeCommunities, ctl, ctlLarge)
			}
			for _, id := range ids {
				if want := ts.includes(id); exportsTo(asn, attrs, id) != want {
					t.Fatalf("AS%d %v %v: neighbor %d exported %v, oracle %v", asn, attrs.Communities, attrs.LargeCommunities,
						id, !want, want)
				}
			}
		}
	}
}

func TestParseLargeTargets(t *testing.T) {
	ts, _ := parseTargets(platformASN, nil)
	large := []bgp.LargeCommunity{
		LargeAnnounceTo(platformASN, 12),
		LargeNoExportTo(platformASN, 13),
		{Global: 4200000000, Local1: 1, Local2: 1},   // foreign: preserved
		{Global: platformASN, Local1: 99, Local2: 1}, // unknown fn: preserved
	}
	ts, rest := parseLargeTargets(platformASN, ts, large)
	if !ts.allow[12] || !ts.deny[13] {
		t.Errorf("large targets %+v", ts)
	}
	if len(rest) != 2 {
		t.Errorf("rest %v", rest)
	}
}

func TestLargeCommunitySteering(t *testing.T) {
	// End to end: steer with large communities instead of regular ones.
	f := newFig1(t)
	x1 := f.connectExperiment(t, "X1", true)

	attrs := &bgp.PathAttrs{
		Origin: bgp.OriginIGP, HasOrigin: true,
		ASPath:           []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{expASN}}},
		NextHop:          ip("100.65.0.1"),
		LargeCommunities: []bgp.LargeCommunity{LargeAnnounceTo(platformASN, 2)},
	}
	u := &bgp.Update{Attrs: attrs, NLRI: []bgp.NLRI{{Prefix: pfx("10.1.0.0/24")}}}
	if err := x1.sess.Send(u); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "announcement at N2", func() bool {
		_, ok := f.n2.routes()[bgp.NLRI{Prefix: pfx("10.1.0.0/24")}]
		return ok
	})
	time.Sleep(50 * time.Millisecond)
	if _, leaked := f.n1.routes()[bgp.NLRI{Prefix: pfx("10.1.0.0/24")}]; leaked {
		t.Fatal("large-community whitelist leaked to N1")
	}
	// The control large community must be stripped on export.
	lu := f.n2.lastUpdate()
	for _, lc := range lu.Attrs.LargeCommunities {
		if lc.Global == platformASN {
			t.Errorf("control large community %v leaked", lc)
		}
	}
}

// LargeNoExportTo builds the large-community blacklist for a neighbor.
func LargeNoExportTo(platformASN, neighborID uint32) bgp.LargeCommunity {
	return bgp.LargeCommunity{Global: platformASN, Local1: largeFnNoExportTo, Local2: neighborID}
}
