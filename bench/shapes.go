package main

// Every workload is a whole system shape. The driver's contract has each
// run report every end-to-end metric, so each run drives all three paths;
// what a workload chooses is which dimension is large. A path that is
// not the workload's subject runs at the small base shape, which doubles
// as the other side of the comparison (forwarding at 4 ports against 64
// is Segment.transmit's O(ports) scan; a create at 8 specs against 200 is
// commitLocked's O(specs) re-render).

// shape is one workload: the three paths and how -seconds is divided
// between their phases.
type shape struct {
	update updateShape
	packet packetShape
	api    apiShape
	// weights divide -seconds between the timed phases, in phase order.
	weights phaseWeights
}

type phaseWeights struct {
	update, dump, forward, inbound, tunnel, announce, api float64
}

func (w phaseWeights) total() float64 {
	return w.update + w.dump + w.forward + w.inbound + w.tunnel + w.announce + w.api
}

// packetShape is the packet path's share of a workload.
type packetShape struct {
	ports         int // neighbors on the IXP-style LAN, each a sink
	routesPerPort int
	dests         int // distinct destinations, spread over all ports in a fixed stride
	pktsPerRound  int
	payload       int
}

// apiShape is the reverse update direction and the API path.
type apiShape struct {
	preload        int // specs created and converged in set-up
	prefixPerRound int // /24s announced then withdrawn per announce round
}

var (
	baseUpdate = updateShape{
		neighbors: 2, routesPerNbr: 8192, nlriPerUpdate: 1, experiments: 2,
		activeNbrs: 2, routesPerRound: 16384, mix: churnMix{community: 0.10, withdraw: 0.10}, dumpJoins: 4,
	}
	basePacket = packetShape{ports: 4, routesPerPort: 2048, dests: 1024, pktsPerRound: 200_000, payload: 64}
	baseAPI    = apiShape{preload: 8, prefixPerRound: 1024}
	baseWeight = phaseWeights{update: 1.5, dump: 1, forward: 1, inbound: 1, tunnel: 1, announce: 1.5, api: 3}
)

// shapeFor returns the named workload's shape with sizes divided by
// scale (1 = as specified; the smoke test uses 64).
func shapeFor(name string, scale int) (shape, bool) {
	sh := shape{update: baseUpdate, packet: basePacket, api: baseAPI, weights: baseWeight}
	switch name {
	case "fanout-wide":
		// §4.2's defining axis: every neighbor route to every experiment.
		sh.update = updateShape{
			neighbors: 2, routesPerNbr: 32768, nlriPerUpdate: 1, experiments: 8,
			activeNbrs: 2, routesPerRound: 16384, mix: churnMix{community: 0.10, withdraw: 0.10}, dumpJoins: 1,
			isolated: true,
		}
		sh.weights.update, sh.weights.dump = 6, 2
	case "table-deep":
		// The same path used the other way: a quarter of a large table
		// re-announced per round, table-transfer shape, fan-out 1x.
		sh.update = updateShape{
			neighbors: 16, routesPerNbr: 16384, nlriPerUpdate: 8, experiments: 1,
			activeNbrs: 8, routesPerRound: 131072, mix: churnMix{}, dumpJoins: 1, isolated: true,
		}
		sh.weights.update, sh.weights.dump = 5, 5
	case "packet-forward":
		// §3.2.2's data-plane delegation on an IXP-sized LAN.
		sh.packet = packetShape{ports: 64, routesPerPort: 2048, dests: 1024, pktsPerRound: 100_000, payload: 64}
		sh.weights.forward, sh.weights.inbound, sh.weights.tunnel = 4, 3, 3
	case "announce-api":
		// The reverse update direction and the API path, with enough
		// specs that per-spec costs show.
		sh.api = apiShape{preload: 200, prefixPerRound: 1024}
		sh.weights.announce, sh.weights.api = 4, 5.5
	default:
		return shape{}, false
	}
	if scale > 1 {
		div := func(v *int, floor int) { *v = max(*v/scale, floor) }
		u := &sh.update
		div(&u.routesPerNbr, 64*u.nlriPerUpdate)
		u.routesPerRound = u.activeNbrs * u.routesPerNbr
		div(&sh.packet.ports, 2)
		div(&sh.packet.routesPerPort, 32)
		sh.packet.dests = min(sh.packet.dests, sh.packet.routesPerPort)
		div(&sh.packet.pktsPerRound, 2048)
		div(&sh.api.preload, 2)
		div(&sh.api.prefixPerRound, 16)
	}
	return sh, true
}
