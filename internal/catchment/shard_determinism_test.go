package catchment

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"

	"repro/internal/bgp"
	"repro/internal/rib"
)

// TestCatchmentMapShardInvariant guards PR 7's Walk/snapshot
// determinism from the consumer side: the same logical FIB contents
// loaded into 1-, 2-, and 16-shard tables must produce bit-identical
// catchment maps — same assignments AND same FIB digests, since the
// digest hashes every best route in Walk order.
func TestCatchmentMapShardInvariant(t *testing.T) {
	top, vias := steerTopology(t)
	anycast := pfx("184.164.224.0/24")
	inject(t, top, anycast, vias, nil)
	populations := GeneratePopulations(top, 100000, 47065)

	// The logical FIB for each PoP: the anycast prefix plus background
	// routes spread across the address space so multi-shard tables
	// actually use all their shards.
	buildFIB := func(pop string, shards int) *rib.Snapshot {
		table := rib.NewTableShards(pop, shards)
		add := func(prefix netip.Prefix, peer string, path ...uint32) {
			table.Add(&rib.Path{
				Prefix: prefix,
				Peer:   peer,
				Attrs: &bgp.PathAttrs{
					Origin: bgp.OriginIGP, HasOrigin: true,
					ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: path}},
					NextHop: netip.MustParseAddr("198.18.0.1"),
				},
				EBGP: true,
				Seq:  rib.NextSeq(),
			})
		}
		add(anycast, "exp", 61574)
		for i := 0; i < 512; i++ {
			add(pfx(fmt.Sprintf("10.%d.%d.0/24", i/256, i%256)),
				fmt.Sprintf("as%d", 1000+i%7), uint32(1000+i%7), uint32(65000+i))
		}
		return table.BuildSnapshot()
	}

	resolveWith := func(shards int) *Map {
		views := []PoPView{
			ViewFromFIB("pop01", buildFIB("pop01", shards),
				[]NeighborRef{{PoP: "pop01", ID: 1, ASN: 101}, {PoP: "pop01", ID: 2, ASN: 102}}, anycast),
			ViewFromFIB("pop02", buildFIB("pop02", shards),
				[]NeighborRef{{PoP: "pop02", ID: 3, ASN: 201}, {PoP: "pop02", ID: 4, ASN: 202}}, anycast),
		}
		for _, v := range views {
			if !v.Announced {
				t.Fatalf("%s view (shards=%d) does not see the anycast prefix", v.PoP, shards)
			}
			if v.FIBRoutes != 513 {
				t.Fatalf("%s view (shards=%d) has %d routes, want 513", v.PoP, shards, v.FIBRoutes)
			}
		}
		return Resolve(top, platformASN, anycast, views, populations)
	}

	base := resolveWith(1)
	if base.Total != 100000 {
		t.Fatalf("base map total %d", base.Total)
	}
	for _, shards := range []int{2, 16} {
		m := resolveWith(shards)
		if !reflect.DeepEqual(base, m) {
			t.Errorf("catchment map with %d shards differs from 1-shard map: digests %v vs %v, pop clients %v vs %v",
				shards, m.FIBDigests, base.FIBDigests, m.PoPClients, base.PoPClients)
		}
	}
}
