package inet

import (
	"net/netip"
	"testing"

	"repro/internal/rpki"
)

// TestROVSweepShrinksHijackAndPeerlockBlocksLeak sweeps ROV deployment
// across the synthetic Internet and checks the two attacks the security
// layer must contain:
//
//   - a sub-prefix hijack from an unauthorized origin (RPKI-Invalid
//     under the victim's ROA): ROV-deploying ASes drop it at import, so
//     its catchment shrinks monotonically as deployment grows and full
//     deployment confines it to the hijacker;
//   - a route leak forging a path through a tier-1 to the true origin
//     (RPKI-Valid, invisible to ROV): the tier-1s' Peerlock rules drop
//     it at every deployment fraction.
//
// Each fraction rebuilds the topology so ROV is in force before the
// attacks propagate (ROV is an import policy; held routes stay put).
func TestROVSweepShrinksHijackAndPeerlockBlocksLeak(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.Tier2 = 20
	cfg.Edges = 150

	const (
		victim   = uint32(10010) // sub-prefix hijack target
		attacker = uint32(10077) // originates victim's /25 (Invalid)
		origin   = uint32(10034) // true origin the leak claims to reach
		leaker   = uint32(10123) // forges a path through tier-1 AS101
		seed     = int64(47065)
	)
	victimPfx := PrefixForASN(victim)
	subPfx := netip.PrefixFrom(victimPfx.Addr(), victimPfx.Bits()+1)

	prev := -1
	for _, f := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		topo := Generate(cfg)
		store := rpki.NewStore()
		for _, asn := range topo.ASNs() {
			for _, prefix := range topo.AS(asn).Originated {
				store.Add(rpki.ROA{Prefix: prefix, ASN: asn})
			}
		}
		topo.SetValidator(store)
		topo.DeployROV(f, seed)
		for i := 0; i < cfg.Tier1; i++ {
			for j := 0; j < cfg.Tier1; j++ {
				if i != j {
					if err := topo.AddPeerlock(uint32(100+i), rpki.Peerlock{Protected: uint32(100 + j)}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}

		if err := topo.Originate(attacker, subPfx); err != nil {
			t.Fatal(err)
		}
		hijacked := len(topo.ChoosersOf(subPfx, attacker))
		if prev >= 0 && hijacked > prev {
			t.Errorf("ROV %.2f: hijack catchment grew from %d to %d ASes", f, prev, hijacked)
		}
		prev = hijacked
		if f == 1 && hijacked != 1 {
			t.Errorf("full ROV deployment: hijack reached %d ASes, want only the hijacker", hijacked)
		}

		if err := topo.OriginateWithPath(leaker, PrefixForASN(origin), []uint32{leaker, 101, origin}); err != nil {
			t.Fatal(err)
		}
		if _, leakDrops := topo.SecurityDrops(); leakDrops == 0 {
			t.Errorf("ROV %.2f: Peerlock never dropped the origin-valid leak", f)
		}
	}
}
