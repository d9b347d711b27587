package bgp

import "encoding/binary"

// Export blocks: a run of routes is packed and framed once per
// negotiated option set, and the resulting bytes are what every
// session's output queue receives (FanOut, Session.SendBatch).

// Route is one route of an export block: NLRI advertised under Attrs,
// or withdrawn when Attrs is nil. Attrs is only read, and only until
// the call it is passed to returns.
type Route struct {
	NLRI  NLRI
	Attrs *PathAttrs
}

// noAttrs is the empty attribute set an IPv6 withdrawal is framed with.
var noAttrs PathAttrs

// nlriWireSize returns the encoded size of one NLRI entry: optional
// 4-byte ADD-PATH id, length octet, minimal prefix octets.
func nlriWireSize(n NLRI, addPath bool) int {
	sz := 1 + (n.Prefix.Bits()+7)/8
	if addPath {
		sz += 4
	}
	return sz
}

// packableAdvert reports whether u is a pure IPv4 advertisement (resp.
// packableWithdraw a pure IPv4 withdrawal) whose routes may share a
// frame with its neighbors'.
func packableAdvert(u *Update) bool {
	return u.Attrs != nil && len(u.NLRI) > 0 && !u.eorV6 &&
		len(u.Withdrawn) == 0 && len(u.MPReach) == 0 && len(u.MPUnreach) == 0
}

func packableWithdraw(u *Update) bool {
	return u.Attrs == nil && len(u.Withdrawn) > 0 && !u.eorV6 &&
		len(u.NLRI) == 0 && len(u.MPReach) == 0 && len(u.MPUnreach) == 0
}

// blockEncoder frames a sequence of routes and messages into one
// contiguous run of UPDATEs, packing as it goes: consecutive IPv4
// advertisements under the same *PathAttrs (pointer identity — the
// shape table dumps and batched propagation emit) share a frame filled
// to the 4096-byte message limit, and so do consecutive IPv4
// withdrawals, so a million-route flood crosses the wire (and the
// peer's decoder) in thousands of frames instead of a million.
// Everything else is framed on its own, and nothing is reordered. Size
// accounting is exact, so a packed frame never exceeds MaxMessageLen.
//
// The first message that cannot be framed stops the encoder: buf keeps
// the valid prefix and err says why.
type blockEncoder struct {
	opts *codecOpts
	buf  []byte
	msgs int
	err  error

	// The open frame, if any, still accepting routes: an advertisement
	// under attrs, or (attrs nil) a withdrawal.
	open   bool
	attrs  *PathAttrs
	start  int // offset of the open frame's header
	routes int // routes in the open frame
}

// begin opens a frame for attrs (nil: a withdrawal frame).
func (e *blockEncoder) begin(attrs *PathAttrs) {
	e.open, e.attrs, e.start, e.routes = true, attrs, len(e.buf), 0
	e.buf = append(e.buf, marker[:]...)
	e.buf = append(e.buf, 0, 0, MsgUpdate, 0, 0) // length, type, withdrawn length
	if attrs != nil {
		at := len(e.buf)
		e.buf = append(e.buf, 0, 0)
		e.buf = appendAttrs(e.buf, attrs, e.opts.as4, nil, nil, e.opts.addPathV6)
		binary.BigEndian.PutUint16(e.buf[at:], uint16(len(e.buf)-at-2))
	}
}

// end closes the open frame, patching its lengths.
func (e *blockEncoder) end() {
	if !e.open {
		return
	}
	e.open = false
	if e.attrs == nil {
		wd := e.start + HeaderLen
		binary.BigEndian.PutUint16(e.buf[wd:], uint16(len(e.buf)-wd-2))
		e.buf = append(e.buf, 0, 0) // no attributes
	}
	e.framed()
}

// framed accounts for the message occupying buf[start:].
func (e *blockEncoder) framed() {
	total := len(e.buf) - e.start
	if total > MaxMessageLen {
		e.buf = e.buf[:e.start]
		e.err = errMessageTooLong(total)
		return
	}
	binary.BigEndian.PutUint16(e.buf[e.start+16:], uint16(total))
	e.msgs++
	outBytes.Observe(float64(total))
}

// route appends one IPv4 route to the open frame when it continues the
// frame's run and fits, and to a fresh frame otherwise. tail is what
// closing the frame will still add behind the routes.
func (e *blockEncoder) route(n NLRI, attrs *PathAttrs) {
	if e.err != nil {
		return
	}
	tail := 0
	if attrs == nil {
		tail = 2
	}
	sz := nlriWireSize(n, e.opts.addPathV4)
	if !e.open || e.attrs != attrs || (e.routes > 0 && len(e.buf)-e.start+sz+tail > MaxMessageLen) {
		e.end()
		if e.err != nil {
			return
		}
		e.begin(attrs)
	}
	e.buf = appendNLRI(e.buf, n, e.opts.addPathV4)
	e.routes++
}

// message frames m on its own.
func (e *blockEncoder) message(m *Update) {
	e.end()
	if e.err != nil {
		return
	}
	e.start = len(e.buf)
	e.buf = append(e.buf, marker[:]...)
	e.buf = append(e.buf, 0, 0, MsgUpdate)
	e.buf = m.appendBody(e.buf, e.opts)
	e.framed()
}

// update adds every route of u, in order.
func (e *blockEncoder) update(u *Update) {
	switch {
	case packableAdvert(u):
		for _, n := range u.NLRI {
			e.route(n, u.Attrs)
		}
	case packableWithdraw(u):
		for _, n := range u.Withdrawn {
			e.route(n, nil)
		}
	default:
		e.message(u)
	}
}

// add adds one route. IPv6 routes travel in MP attributes and are
// framed one per message.
func (e *blockEncoder) add(r Route) {
	switch {
	case !r.NLRI.Prefix.Addr().Is6():
		e.route(r.NLRI, r.Attrs)
	case r.Attrs == nil:
		e.message(&Update{Attrs: &noAttrs, MPUnreach: []NLRI{r.NLRI}})
	default:
		e.message(&Update{Attrs: r.Attrs, MPReach: []NLRI{r.NLRI}})
	}
}

// block is the outcome of one encode: the framed bytes in a pooled
// buffer (one reference, the caller's), how many UPDATEs they hold, and
// the error that cut the run short, if any.
type block struct {
	buf  *encodeBuffer
	msgs int
	err  error
}

func (e *blockEncoder) finish(eb *encodeBuffer) block {
	e.end()
	eb.buf = e.buf
	eb.refs.Store(1)
	return block{buf: eb, msgs: e.msgs, err: e.err}
}

// encodeUpdates frames updates for one option set.
func encodeUpdates(updates []*Update, opts *codecOpts) block {
	eb := getEncodeBuffer()
	e := blockEncoder{opts: opts, buf: eb.buf}
	for _, u := range updates {
		e.update(u)
	}
	return e.finish(eb)
}

// encodeRoutes frames routes for one option set.
func encodeRoutes(routes []Route, opts *codecOpts) block {
	eb := getEncodeBuffer()
	e := blockEncoder{opts: opts, buf: eb.buf}
	for _, r := range routes {
		e.add(r)
	}
	return e.finish(eb)
}

// FanOut delivers routes, in order, to every Established session of
// sessions. The block is packed and encoded once per distinct
// negotiated option set — in practice once: every experiment and mesh
// session negotiates the same one — and the same bytes are appended to
// each session's output queue, so the cost of a fan-out is one encode
// plus one enqueue per session, and no session's transport is touched
// here. FanOut never waits for a peer; a session whose queue is over
// its bound is ended by its own slow-consumer policy without affecting
// the others.
// It returns how many sessions took the block, and the error that cut
// the encoding short, if any (the routes before it are still
// delivered).
func FanOut(sessions []*Session, routes []Route) (took int, err error) {
	if len(routes) == 0 {
		return 0, nil
	}
	type encoded struct {
		opts codecOpts
		block
	}
	blocks := make([]encoded, 0, 2)
	for _, s := range sessions {
		if s.State() != StateEstablished {
			continue
		}
		if s.cfg.MRAI > 0 {
			// Pacing is per session and per route; nothing to share.
			if s.sendPaced(routes) == nil {
				took++
			}
			continue
		}
		var b *encoded
		for i := range blocks {
			if blocks[i].opts == s.enc {
				b = &blocks[i]
				break
			}
		}
		if b == nil {
			blocks = append(blocks, encoded{s.enc, encodeRoutes(routes, &s.enc)})
			b = &blocks[len(blocks)-1]
			if err == nil {
				err = b.err
			}
		}
		if s.enqueueBlock(b.block) == nil {
			took++
		}
	}
	for i := range blocks {
		blocks[i].buf.drop()
	}
	return took, err
}

// sendPaced sends routes one UPDATE each, applying the session's MRAI —
// without Send's wait for room: this is the fan-out path. Pacing may
// hold an advertisement past this call, so each gets its own copy of
// the attributes.
func (s *Session) sendPaced(routes []Route) error {
	for _, r := range routes {
		u := &Update{}
		switch v6 := r.NLRI.Prefix.Addr().Is6(); {
		case r.Attrs == nil && v6:
			u.Attrs, u.MPUnreach = &noAttrs, []NLRI{r.NLRI}
		case r.Attrs == nil:
			u.Withdrawn = []NLRI{r.NLRI}
		case v6:
			u.Attrs, u.MPReach = r.Attrs.Clone(), []NLRI{r.NLRI}
		default:
			u.Attrs, u.NLRI = r.Attrs.Clone(), []NLRI{r.NLRI}
		}
		if err := s.send(u); err != nil {
			return err
		}
	}
	return nil
}
