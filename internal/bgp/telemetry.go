package bgp

import "repro/internal/telemetry"

// Package-level metrics, shared by every session in the process.
var (
	// fsmTransitions counts entries into each FSM state
	// (bgp_fsm_transitions_total{to=...}).
	fsmTransitions [StateEstablished + 1]*telemetry.Counter
	// sessionFlaps counts Established sessions that dropped back to Idle.
	sessionFlaps *telemetry.Counter
	// outBytes is the size distribution of marshalled outbound messages.
	// A message is observed when it is encoded — once, however many
	// sessions the block holding it is fanned out to.
	outBytes *telemetry.Histogram
	// mraiBatchSize is the distribution of how many coalesced routes
	// each MRAI flush delivered — the churn-compression the interval
	// bought (bgp_mrai_batch_size).
	mraiBatchSize *telemetry.Histogram
)

func init() {
	reg := telemetry.Default()
	for st := StateIdle; st <= StateEstablished; st++ {
		fsmTransitions[st] = reg.Counter("bgp_fsm_transitions_total", telemetry.L("to", st.String()))
	}
	sessionFlaps = reg.Counter("bgp_session_flaps_total")
	outBytes = reg.Histogram("bgp_message_out_bytes", []float64{32, 64, 128, 256, 512, 1024, 2048, 4096})
	mraiBatchSize = reg.Histogram("bgp_mrai_batch_size", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
}

var msgTypeNames = [MsgRouteRefresh + 1]string{
	MsgOpen:         "open",
	MsgUpdate:       "update",
	MsgNotification: "notification",
	MsgKeepalive:    "keepalive",
	MsgRouteRefresh: "route-refresh",
}

// sessionMetrics holds the per-peer counters a session resolves once at
// construction so hot paths mutate with a single atomic op.
type sessionMetrics struct {
	peer       string
	msgsIn     [MsgRouteRefresh + 1]*telemetry.Counter
	msgsOut    [MsgRouteRefresh + 1]*telemetry.Counter
	decodeErrs *telemetry.Counter
	// queueBytes is the depth of the session's output queue
	// (bgp_session_out_queue_bytes{peer}): bytes queued or being
	// written. Zero whenever the peer keeps up.
	queueBytes *telemetry.Gauge
}

func newSessionMetrics(peer string) *sessionMetrics {
	if peer == "" {
		peer = "unnamed"
	}
	reg := telemetry.Default()
	m := &sessionMetrics{
		peer:       peer,
		decodeErrs: reg.Counter("bgp_decode_errors_total", telemetry.L("peer", peer)),
		queueBytes: reg.Gauge("bgp_session_out_queue_bytes", telemetry.L("peer", peer)),
	}
	for t := MsgOpen; t <= MsgRouteRefresh; t++ {
		m.msgsIn[t] = reg.Counter("bgp_messages_in_total",
			telemetry.L("peer", peer), telemetry.L("type", msgTypeNames[t]))
		m.msgsOut[t] = reg.Counter("bgp_messages_out_total",
			telemetry.L("peer", peer), telemetry.L("type", msgTypeNames[t]))
	}
	return m
}

func (m *sessionMetrics) countIn(msg Message) {
	if t := msg.Type(); t >= MsgOpen && t <= MsgRouteRefresh {
		m.msgsIn[t].Inc()
	}
}
