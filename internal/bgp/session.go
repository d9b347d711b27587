package bgp

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// State is a BGP FSM state (RFC 4271 §8.2.2). The Connect and Active
// states concern TCP connection management, which the transport (a tunnel
// or net.Pipe in the simulator, TCP in cmd/peeringd) handles before a
// Session is created; a Session therefore starts in StateOpenSent.
type State int32

// FSM states.
const (
	StateIdle State = iota
	StateConnect
	StateActive
	StateOpenSent
	StateOpenConfirm
	StateEstablished
)

// String returns the RFC name of the state.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "Idle"
	case StateConnect:
		return "Connect"
	case StateActive:
		return "Active"
	case StateOpenSent:
		return "OpenSent"
	case StateOpenConfirm:
		return "OpenConfirm"
	case StateEstablished:
		return "Established"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// Config configures one side of a BGP session.
type Config struct {
	// LocalASN and RemoteASN are the 4-octet AS numbers. RemoteASN 0
	// accepts any peer ASN (used by route servers).
	LocalASN  uint32
	RemoteASN uint32
	// LocalID is the BGP identifier (an IPv4 address).
	LocalID netip.Addr
	// HoldTime proposed in the OPEN. Zero selects DefaultHoldTime.
	HoldTime time.Duration
	// Families lists address families for the multiprotocol capability.
	// Defaults to IPv4 unicast.
	Families []AFISAFI
	// AddPath maps families to the ADD-PATH mode advertised
	// (AddPathSend, AddPathReceive, or AddPathSendReceive).
	AddPath map[AFISAFI]uint8
	// DisableAS4 advertises no 4-octet-AS capability, forcing 2-octet
	// AS_PATH encoding (for interop tests).
	DisableAS4 bool
	// PeerName labels this session's telemetry series (the platform
	// neighbor name). Empty is allowed; all unnamed sessions share one
	// series per metric.
	PeerName string
	// MRAI, when positive, enforces BGP's MinRouteAdvertisementInterval
	// (RFC 4271 §9.2.1.1): successive advertisements of the SAME prefix
	// are paced, with only the newest version sent when the interval
	// expires. Withdrawals and first advertisements go out immediately.
	// The paper notes MRAI as a baseline delay any update pipeline sits
	// behind (§6). Zero disables pacing.
	MRAI time.Duration
	// GracefulRestart, when non-nil, advertises the RFC 4724 capability:
	// the peer should retain our routes across a session drop and we do
	// the same for it (stale-path retention is the caller's job, driven
	// by OnClose and OnEndOfRIB).
	GracefulRestart *GracefulRestartConfig

	// OnUpdate is called for each received UPDATE while Established.
	// End-of-RIB markers are not passed here; see OnEndOfRIB.
	//
	// The Update and its NLRI lists are lent until OnUpdate returns: the
	// session decodes every UPDATE into the same one, so a callback that
	// keeps the Update or a list past its return must copy it. Attrs is
	// a freshly allocated set the callback owns and may keep.
	OnUpdate func(*Update)
	// OnEndOfRIB is called when the peer signals End-of-RIB for a
	// family (RFC 4724): its initial re-advertisement after a restart
	// is complete and retained stale paths can be swept.
	OnEndOfRIB func(AFISAFI)
	// OnRouteRefresh is called when the peer requests re-advertisement
	// of a family (RFC 2918).
	OnRouteRefresh func(AFISAFI)
	// OnEstablished is called once the session reaches Established.
	OnEstablished func()
	// OnClose is called exactly once when the session ends.
	OnClose func(error)

	// Logf, when set, receives session event logs.
	Logf func(format string, args ...any)
}

// GracefulRestartConfig configures RFC 4724 negotiation for a session.
type GracefulRestartConfig struct {
	// RestartTime is advertised as the 12-bit restart time: how long the
	// peer should retain our routes after the session drops.
	RestartTime time.Duration
	// Restarting sets the R bit, marking this session as the
	// re-establishment after a restart (set by the Supervisor on
	// reconnect attempts).
	Restarting bool
}

// Session is one BGP session over an established transport. Create with
// NewSession and call Run (usually in a goroutine); send routes with
// Send.
type Session struct {
	cfg  Config
	conn net.Conn
	// frames cuts the inbound byte stream into messages.
	frames frameReader

	state atomic.Int32

	enc codecOpts // applies to what we send
	dec codecOpts // applies to what we receive

	// out is the output queue every outbound byte crosses; the writer
	// goroutine (started by Run) drains it and closes writerDone when
	// it exits. See outqueue.go.
	out        outQueue
	writerDone chan struct{}
	bounds     outBounds

	negotiated struct {
		remoteASN  uint32
		remoteID   netip.Addr
		holdTime   time.Duration
		remoteCaps *Capabilities
	}

	holdMu   sync.Mutex
	lastRecv time.Time

	// MRAI coalescing state (RFC 4271 §9.2.1.1): one pending map and
	// ONE flush timer per session. mraiLast records when each route was
	// last advertised; re-advertisements inside the interval replace the
	// pending copy, and the timer drains everything due in a single
	// batched UPDATE per attribute set.
	mraiMu      sync.Mutex
	mraiLast    map[string]time.Time
	mraiPending map[string]pacedRoute
	mraiOrder   []string
	mraiTimer   *time.Timer
	mraiAt      time.Time
	// MRAISuppressed counts advertisements absorbed by pacing.
	MRAISuppressed atomic.Uint64

	closeOnce sync.Once
	closeErr  error
	done      chan struct{}

	still atomic.Uint64 // what Quiesced saw on its previous call

	metrics *sessionMetrics

	// Counters for the scalability evaluation (paper §6).
	UpdatesIn  atomic.Uint64
	UpdatesOut atomic.Uint64
	BytesIn    atomic.Uint64
	BytesOut   atomic.Uint64
}

// NewSession wraps conn in a BGP session. The caller owns starting it
// with Run.
func NewSession(conn net.Conn, cfg Config) *Session {
	if cfg.HoldTime == 0 {
		cfg.HoldTime = DefaultHoldTime * time.Second
	}
	if len(cfg.Families) == 0 {
		cfg.Families = []AFISAFI{IPv4Unicast}
	}
	s := &Session{cfg: cfg, conn: conn, done: make(chan struct{}), writerDone: make(chan struct{}), bounds: defaultOutBounds}
	s.frames.r = &countingReader{r: conn, n: &s.BytesIn}
	s.out.init()
	s.metrics = newSessionMetrics(cfg.PeerName)
	s.state.Store(int32(StateIdle))
	return s
}

// countingReader tallies inbound bytes for the §6 counters.
type countingReader struct {
	r io.Reader
	n *atomic.Uint64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(uint64(n))
	return n, err
}

// State returns the current FSM state.
func (s *Session) State() State { return State(s.state.Load()) }

// RemoteID returns the peer's BGP identifier.
func (s *Session) RemoteID() netip.Addr { return s.negotiated.remoteID }

// Done returns a channel closed when the session terminates.
func (s *Session) Done() <-chan struct{} { return s.done }

// Err returns the terminal error after Done is closed.
func (s *Session) Err() error {
	select {
	case <-s.done:
		return s.closeErr
	default:
		return nil
	}
}

func (s *Session) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// localCaps builds the capability set advertised in our OPEN.
func (s *Session) localCaps() *Capabilities {
	c := &Capabilities{MP: s.cfg.Families, RouteRefresh: true}
	if !s.cfg.DisableAS4 {
		c.AS4 = s.cfg.LocalASN
	}
	if len(s.cfg.AddPath) > 0 {
		c.AddPath = s.cfg.AddPath
	}
	if gr := s.cfg.GracefulRestart; gr != nil {
		g := &GracefulRestart{Restarting: gr.Restarting, Time: gr.RestartTime}
		for _, f := range s.cfg.Families {
			g.Families = append(g.Families, GRFamily{Family: f, Forwarding: true})
		}
		c.GR = g
	}
	return c
}

// GracefulRestartNegotiated reports whether both sides advertised the
// RFC 4724 capability (valid once the session leaves OpenSent). Callers
// use it to decide between stale-path retention and immediate withdraw
// when the session drops.
func (s *Session) GracefulRestartNegotiated() bool {
	return s.cfg.GracefulRestart != nil &&
		s.negotiated.remoteCaps != nil && s.negotiated.remoteCaps.GR != nil
}

// SendEndOfRIB transmits the End-of-RIB marker for family f, signalling
// that the initial (re-)advertisement of the family is complete.
func (s *Session) SendEndOfRIB(f AFISAFI) error {
	if s.State() != StateEstablished {
		return fmt.Errorf("bgp: session not established (state %s)", s.State())
	}
	return s.write(EndOfRIB(f))
}

// setState records an FSM transition, counting flaps when an
// Established session drops back to Idle.
func (s *Session) setState(st State) {
	old := State(s.state.Swap(int32(st)))
	if old == st {
		return
	}
	fsmTransitions[st].Inc()
	if st == StateIdle && old == StateEstablished {
		sessionFlaps.Inc()
	}
}

// Run drives the session: it sends our OPEN, completes the handshake,
// then processes messages until the session ends. It always returns the
// terminal error (nil only on clean administrative shutdown).
func (s *Session) Run() error {
	s.out.mu.Lock()
	closed, again := s.out.closed, s.out.started
	s.out.started = true
	s.out.mu.Unlock()
	switch {
	case again:
		return errors.New("bgp: Run called twice")
	case closed: // closed before it ran
		<-s.done
		return s.closeErr
	}
	go s.runWriter()

	s.setState(StateOpenSent)
	openASN := uint16(ASTrans)
	if s.cfg.LocalASN <= 0xffff {
		openASN = uint16(s.cfg.LocalASN)
	}
	open := &Open{
		Version:  Version,
		ASN:      openASN,
		HoldTime: uint16(s.cfg.HoldTime / time.Second),
		BGPID:    s.cfg.LocalID,
		Caps:     s.localCaps(),
	}
	if err := s.write(open); err != nil {
		s.shutdown(err)
		return s.closeErr
	}

	// Handshake: expect the peer's OPEN.
	msg, err := s.frames.readMessage(&s.dec)
	if err != nil {
		var ne *NotificationError
		if errors.As(err, &ne) {
			s.notifyAndClose(ne)
		} else {
			s.shutdown(fmt.Errorf("bgp: waiting for OPEN: %w", err))
		}
		return s.closeErr
	}
	s.metrics.countIn(msg)
	peerOpen, ok := msg.(*Open)
	if !ok {
		s.notifyAndClose(notif(ErrCodeFSM, 0))
		return s.closeErr
	}
	if err := s.handleOpen(peerOpen); err != nil {
		var ne *NotificationError
		if errors.As(err, &ne) {
			s.notifyAndClose(ne)
		} else {
			s.shutdown(err)
		}
		return s.closeErr
	}
	s.setState(StateOpenConfirm)
	if err := s.write(&Keepalive{}); err != nil {
		s.shutdown(err)
		return s.closeErr
	}

	s.touch()
	if s.negotiated.holdTime > 0 {
		go s.keepaliveLoop()
	}

	for {
		msg, err := s.frames.readMessage(&s.dec)
		if err != nil {
			var ne *NotificationError
			if errors.As(err, &ne) {
				s.notifyAndClose(ne)
			} else {
				s.shutdown(err)
			}
			return s.closeErr
		}
		s.touch()
		s.metrics.countIn(msg)
		if err := s.handleMessage(msg); err != nil {
			var ne *NotificationError
			if errors.As(err, &ne) {
				s.notifyAndClose(ne)
			} else {
				s.shutdown(err)
			}
			return s.closeErr
		}
		if s.State() == StateIdle {
			return s.closeErr
		}
	}
}

// handleOpen validates the peer's OPEN and completes negotiation.
func (s *Session) handleOpen(o *Open) error {
	remoteASN := uint32(o.ASN)
	if o.Caps != nil && o.Caps.AS4 != 0 {
		remoteASN = o.Caps.AS4
	}
	if s.cfg.RemoteASN != 0 && remoteASN != s.cfg.RemoteASN {
		return notif(ErrCodeOpen, ErrSubBadPeerAS)
	}
	if !o.BGPID.IsValid() || o.BGPID == netip.IPv4Unspecified() {
		return notif(ErrCodeOpen, ErrSubBadBGPID)
	}
	if o.HoldTime == 1 || o.HoldTime == 2 {
		return notif(ErrCodeOpen, ErrSubUnacceptableHold)
	}
	s.negotiated.remoteASN = remoteASN
	s.negotiated.remoteID = o.BGPID
	s.negotiated.remoteCaps = o.Caps

	hold := s.cfg.HoldTime
	if peer := time.Duration(o.HoldTime) * time.Second; peer < hold {
		hold = peer
	}
	s.negotiated.holdTime = hold

	local := s.localCaps()
	as4 := local.AS4 != 0 && o.Caps != nil && o.Caps.AS4 != 0
	s.enc.as4, s.dec.as4 = as4, as4
	if o.Caps != nil {
		sendV4, recvV4 := negotiateAddPath(local, o.Caps, IPv4Unicast)
		sendV6, recvV6 := negotiateAddPath(local, o.Caps, IPv6Unicast)
		s.enc.addPathV4, s.dec.addPathV4 = sendV4, recvV4
		s.enc.addPathV6, s.dec.addPathV6 = sendV6, recvV6
	}
	s.logf("negotiated: peer AS%d id=%s hold=%s as4=%v addpath(v4 send=%v recv=%v)",
		remoteASN, o.BGPID, hold, as4, s.enc.addPathV4, s.dec.addPathV4)
	return nil
}

func (s *Session) handleMessage(msg Message) error {
	switch m := msg.(type) {
	case *Keepalive:
		if s.State() == StateOpenConfirm {
			s.setState(StateEstablished)
			s.logf("established")
			if s.cfg.OnEstablished != nil {
				s.cfg.OnEstablished()
			}
		}
	case *Update:
		if s.State() != StateEstablished {
			return notif(ErrCodeFSM, 0)
		}
		s.UpdatesIn.Add(1)
		if fam, ok := m.EndOfRIBFamily(); ok {
			if s.cfg.OnEndOfRIB != nil {
				s.cfg.OnEndOfRIB(fam)
			}
			return nil
		}
		if s.cfg.OnUpdate != nil {
			s.cfg.OnUpdate(m)
		}
	case *Notification:
		s.shutdown(m)
	case *RouteRefresh:
		if s.cfg.OnRouteRefresh != nil {
			s.cfg.OnRouteRefresh(m.Family)
		}
	case *Open:
		return notif(ErrCodeFSM, 0)
	}
	return nil
}

// Send transmits an UPDATE. It is safe for concurrent use. With MRAI
// configured, re-advertisements within the interval are absorbed into a
// per-session pending set and delivered coalesced — one batched UPDATE
// per attribute set — when the interval lapses; the first advertisement
// of a route and all withdrawals go out immediately. Send still reports
// success for absorbed routes (the coalesced copy is delivered by the
// session's flush timer, and Close flushes whatever is still pending).
//
// Send encodes u before it returns — the caller may reuse u and its
// attributes at once — and queues the bytes for the session's writer.
// Like a socket with a send buffer, it returns at once while the peer
// keeps up and waits (WaitSendRoom) while more than outQueueRoom is
// queued: a caller that produces faster than the transport takes — a
// loop announcing a million routes — is paced instead of running its
// own session into the queue bound. Only FanOut never waits.
func (s *Session) Send(u *Update) error {
	if err := s.send(u); err != nil {
		return err
	}
	return s.WaitSendRoom()
}

// send is Send without the wait.
func (s *Session) send(u *Update) error {
	if s.State() != StateEstablished {
		return fmt.Errorf("bgp: session not established (state %s)", s.State())
	}
	if s.cfg.MRAI > 0 {
		u = s.coalesce(u)
		if u == nil {
			return nil // fully absorbed
		}
	}
	return s.write(u)
}

// pacedRoute is one advertisement held back by MRAI: the newest
// attributes for a route plus which family list it came from.
type pacedRoute struct {
	attrs *PathAttrs
	nlri  NLRI
	mp    bool // true: MP_REACH (v6) list, false: classic v4 NLRI
}

// coalesce applies MRAI to u, returning the residual update to send
// immediately (nil if everything was absorbed). Withdrawals pass
// through untouched and cancel any pending advertisement of the same
// route — a withdrawal racing a held-back advert must win.
func (s *Session) coalesce(u *Update) *Update {
	now := time.Now()
	s.mraiMu.Lock()
	if s.mraiLast == nil {
		s.mraiLast = make(map[string]time.Time)
		s.mraiPending = make(map[string]pacedRoute)
	}
	for _, w := range u.Withdrawn {
		delete(s.mraiPending, w.String())
	}
	for _, w := range u.MPUnreach {
		delete(s.mraiPending, w.String())
	}
	admit := func(routes []NLRI, mp bool) []NLRI {
		var pass []NLRI
		for _, n := range routes {
			key := n.String()
			last, seen := s.mraiLast[key]
			if !seen || now.Sub(last) >= s.cfg.MRAI {
				s.mraiLast[key] = now
				pass = append(pass, n)
				continue
			}
			if _, dup := s.mraiPending[key]; !dup {
				s.mraiOrder = append(s.mraiOrder, key)
			}
			s.mraiPending[key] = pacedRoute{attrs: u.Attrs, nlri: n, mp: mp}
			s.MRAISuppressed.Add(1)
			s.armFlushLocked(last.Add(s.cfg.MRAI))
		}
		return pass
	}
	nlri := admit(u.NLRI, false)
	mpReach := admit(u.MPReach, true)
	s.mraiMu.Unlock()

	if len(nlri) == len(u.NLRI) && len(mpReach) == len(u.MPReach) {
		return u // nothing absorbed
	}
	if len(nlri) == 0 && len(mpReach) == 0 &&
		len(u.Withdrawn) == 0 && len(u.MPUnreach) == 0 {
		return nil
	}
	return &Update{Withdrawn: u.Withdrawn, MPUnreach: u.MPUnreach, Attrs: u.Attrs, NLRI: nlri, MPReach: mpReach}
}

// armFlushLocked makes sure the session's single flush timer fires no
// later than at. Called with mraiMu held.
func (s *Session) armFlushLocked(at time.Time) {
	if s.mraiTimer != nil && !s.mraiAt.IsZero() && !at.Before(s.mraiAt) {
		return
	}
	if s.mraiTimer != nil {
		s.mraiTimer.Stop()
	}
	s.mraiAt = at
	s.mraiTimer = time.AfterFunc(max(time.Until(at), 0), func() { s.flushPaced(false) })
}

// flushPaced drains the pending set — everything due, or everything
// outright when force is set (flush-on-close) — and sends the survivors
// batched, one UPDATE per distinct attribute set, in arrival order.
func (s *Session) flushPaced(force bool) {
	now := time.Now()
	s.mraiMu.Lock()
	s.mraiAt = time.Time{}
	if s.mraiTimer != nil {
		s.mraiTimer.Stop()
		s.mraiTimer = nil
	}
	var batches []*Update
	byAttrs := make(map[*PathAttrs]*Update)
	var remain []string
	var earliest time.Time
	count := 0
	for _, key := range s.mraiOrder {
		e, ok := s.mraiPending[key]
		if !ok {
			continue // cancelled by a withdrawal
		}
		if due := s.mraiLast[key].Add(s.cfg.MRAI); !force && due.After(now) {
			remain = append(remain, key)
			if earliest.IsZero() || due.Before(earliest) {
				earliest = due
			}
			continue
		}
		delete(s.mraiPending, key)
		s.mraiLast[key] = now
		b := byAttrs[e.attrs]
		if b == nil {
			b = &Update{Attrs: e.attrs}
			byAttrs[e.attrs] = b
			batches = append(batches, b)
		}
		if e.mp {
			b.MPReach = append(b.MPReach, e.nlri)
		} else {
			b.NLRI = append(b.NLRI, e.nlri)
		}
		count++
	}
	s.mraiOrder = remain
	if len(remain) > 0 {
		s.armFlushLocked(earliest)
	}
	// Queued before mraiMu is released: a route is pending or queued.
	defer s.mraiMu.Unlock()
	if count == 0 {
		return
	}
	mraiBatchSize.Observe(float64(count))
	for _, b := range batches {
		if s.State() != StateEstablished {
			return
		}
		_ = s.write(b)
	}
}

// Flush immediately sends every MRAI-held advertisement. Close calls it
// so no coalesced route is lost when a session is shut down cleanly.
func (s *Session) Flush() {
	if s.cfg.MRAI > 0 {
		s.flushPaced(true)
	}
}

// SendBatch transmits a block of UPDATEs: runs of per-route updates are
// packed into shared-attribute route blocks and the whole block is
// framed once (blockEncoder) and queued as one entry, so per-prefix
// lock, encode, and per-frame decode costs on both ends are amortized
// over the block. The receiver sees the same routes with the same
// attributes in the same order as len(updates) sequential Sends, though
// frame boundaries differ. MRAI coalescing (when configured) is applied
// per update exactly as Send applies it. If one update fails to encode,
// the block's earlier messages are still delivered and the encode error
// is returned. Like Send, SendBatch is done with updates when it
// returns, and waits for room once the block is queued.
func (s *Session) SendBatch(updates []*Update) error {
	if s.State() != StateEstablished {
		return fmt.Errorf("bgp: session not established (state %s)", s.State())
	}
	if s.cfg.MRAI > 0 {
		admitted := make([]*Update, 0, len(updates))
		for _, u := range updates {
			if u = s.coalesce(u); u != nil {
				admitted = append(admitted, u)
			}
		}
		updates = admitted
	}
	if len(updates) == 0 {
		return nil
	}
	b := encodeUpdates(updates, &s.enc)
	err := s.enqueueBlock(b)
	b.buf.drop()
	if err == nil {
		err = s.WaitSendRoom()
	}
	if err != nil {
		return err
	}
	return b.err
}

// Quiesced reports whether the session is at rest: it has ended, or its
// output queue is empty (writer parked), no MRAI batch is pending, its
// transport holds nothing unread (pipe.Conn and a tunnel's control
// channel can tell), and its counters have not moved since the previous
// call. Both ends at rest means each has read what the other queued
// (BytesIn equals the peer's BytesOut). It reads only existing state.
func (s *Session) Quiesced() bool {
	idle := true
	select {
	case <-s.done:
	default:
		// Pending before queued: a flush moves routes from one to the
		// other under mraiMu, so this order cannot miss them.
		s.mraiMu.Lock()
		idle = len(s.mraiPending) == 0
		s.mraiMu.Unlock()
		s.out.mu.Lock()
		idle = idle && s.out.bytes == 0
		s.out.mu.Unlock()
		if t, ok := s.conn.(interface{ Buffered() int }); ok && t.Buffered() > 0 {
			idle = false
		}
	}
	var sig uint64 // 0: busy; else the counters' sum, shifted, low bit set
	if idle {
		sig = (s.BytesIn.Load()+s.BytesOut.Load()+s.UpdatesIn.Load()+s.UpdatesOut.Load())<<1 | 1
	}
	return s.still.Swap(sig) == sig && idle
}

func (s *Session) touch() {
	s.holdMu.Lock()
	s.lastRecv = time.Now()
	s.holdMu.Unlock()
}

func (s *Session) keepaliveLoop() {
	interval := s.negotiated.holdTime / 3
	if interval <= 0 {
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			s.holdMu.Lock()
			idle := time.Since(s.lastRecv)
			s.holdMu.Unlock()
			if idle > s.negotiated.holdTime {
				s.notifyAndClose(notif(ErrCodeHoldTimer, 0))
				return
			}
			if err := s.write(&Keepalive{}); err != nil {
				return // the session is closing
			}
		}
	}
}

// Close performs an administrative shutdown: MRAI-held advertisements
// and then a Cease are queued, the writer gets outDrainTimeout to
// deliver them, and the transport is closed — a wedged peer delays
// Close by that much and no more. OnClose has run when Close returns.
func (s *Session) Close() error {
	s.closeOnce.Do(func() {
		s.Flush() // flush-on-close: drain MRAI-held advertisements first
		_ = s.write(&Notification{Code: ErrCodeCease, Subcode: CeaseAdminShutdown})
		s.finish(nil, true)
	})
	return nil
}

// notifyAndClose sends a NOTIFICATION for err and terminates. Every
// locally detected decode or FSM error lands here; hold-timer expiry
// and administrative cease are the only non-error notification causes.
func (s *Session) notifyAndClose(ne *NotificationError) {
	if ne.Code != ErrCodeHoldTimer && ne.Code != ErrCodeCease {
		s.metrics.decodeErrs.Inc()
	}
	_ = s.write(&Notification{Code: ne.Code, Subcode: ne.Subcode, Data: ne.Data})
	s.closeOnce.Do(func() { s.finish(ne, true) })
}

// shutdown terminates on a dead transport or a received NOTIFICATION:
// nothing queued can be delivered any more.
func (s *Session) shutdown(err error) {
	s.closeOnce.Do(func() { s.finish(err, false) })
}

// finish is the single terminal path (callers hold closeOnce): it stops
// the writer — after letting it drain when drain is set — closes the
// transport and reports the end. A slow-consumer verdict overrides
// whatever error the dying transport produced first.
func (s *Session) finish(err error, drain bool) {
	s.stopWriter(drain)
	s.out.mu.Lock()
	if s.out.verdict != nil {
		err = s.out.verdict
	}
	s.out.mu.Unlock()
	s.closeErr = err // before the state: Run reads it once it sees Idle
	s.setState(StateIdle)
	close(s.done)
	if s.cfg.OnClose != nil {
		s.cfg.OnClose(err)
	}
}
