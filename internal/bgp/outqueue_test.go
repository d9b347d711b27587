package bgp

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// gatedConn is a transport whose reads can be held: the peer behind it
// stops taking bytes, as an experiment that wedged does.
type gatedConn struct {
	net.Conn
	mu   sync.Mutex
	gate chan struct{} // non-nil while reads are held
}

func (c *gatedConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	g := c.gate
	c.mu.Unlock()
	if g != nil {
		<-g
	}
	return c.Conn.Read(p)
}

func (c *gatedConn) hold() {
	c.mu.Lock()
	if c.gate == nil {
		c.gate = make(chan struct{})
	}
	c.mu.Unlock()
}

func (c *gatedConn) resume() {
	c.mu.Lock()
	if c.gate != nil {
		close(c.gate)
		c.gate = nil
	}
	c.mu.Unlock()
}

func (c *gatedConn) Close() error {
	c.resume()
	return c.Conn.Close()
}

// netPipeSessions establishes two sessions over net.Pipe — a transport
// with no buffer at all, so a peer that stops reading blocks the other
// side's very next write. It returns both sessions; b's transport is
// the returned gate.
func netPipeSessionsGated(t *testing.T, a, b Config) (*Session, *Session, *gatedConn) {
	t.Helper()
	ca, cb := net.Pipe()
	gate := &gatedConn{Conn: cb}
	for i, cfg := range []*Config{&a, &b} {
		if cfg.LocalASN == 0 {
			cfg.LocalASN, cfg.RemoteASN = uint32(65001+i), uint32(65002-i)
			cfg.LocalID = ip(fmt.Sprintf("10.0.0.%d", i+1))
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	for _, cfg := range []*Config{&a, &b} {
		prev := cfg.OnEstablished
		cfg.OnEstablished = func() {
			wg.Done()
			if prev != nil {
				prev()
			}
		}
	}
	sa, sb := NewSession(ca, a), NewSession(gate, b)
	go sa.Run()
	go sb.Run()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("sessions did not establish over net.Pipe: a=%s b=%s", sa.State(), sb.State())
	}
	t.Cleanup(func() { gate.resume(); sa.Close(); sb.Close() })
	return sa, sb, gate
}

func netPipeSessions(t *testing.T, a, b Config) (*Session, *Session) {
	sa, sb, _ := netPipeSessionsGated(t, a, b)
	return sa, sb
}

func dropCount(peer, reason string) uint64 {
	return telemetry.Default().Counter("bgp_session_out_queue_drops_total",
		telemetry.L("peer", peer), telemetry.L("reason", reason)).Value()
}

func waitWriterGone(t *testing.T, s *Session) {
	t.Helper()
	select {
	case <-s.writerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("writer goroutine still running after the session ended")
	}
}

func bigUpdate(i int) *Update {
	a := baseAttrsASN(65001)
	a.Unknown = []UnknownAttr{{Flags: FlagOptional | FlagTransitive, Type: 99, Data: make([]byte, 3000)}}
	return &Update{Attrs: a, NLRI: []NLRI{{Prefix: pfx(fmt.Sprintf("10.%d.%d.0/24", i>>8&0xff, i&0xff))}}}
}

// TestOutQueueOverflowEndsOnlyThatSession: a peer that stops reading
// never blocks a producer; its queue fills to the bound, the session is
// ended with Cease/Out-of-Resources and the labelled counter, within
// the drain time, and the writer goroutine is gone afterwards.
func TestOutQueueOverflowEndsOnlyThatSession(t *testing.T) {
	const peer = "test:overflow"
	closed := make(chan error, 1)
	sa, _, gate := netPipeSessionsGated(t, Config{PeerName: peer, OnClose: func(err error) { closed <- err }}, Config{})
	sa.bounds = outBounds{limit: 64 << 10, drain: 100 * time.Millisecond, stall: time.Hour}
	before := dropCount(peer, dropOverflow)
	gate.hold()

	var sendErr error
	var slowest time.Duration
	for i := 0; i < 1000 && sendErr == nil; i++ {
		start := time.Now()
		sendErr = sa.Send(bigUpdate(i))
		slowest = max(slowest, time.Since(start))
	}
	if sendErr == nil {
		t.Fatal("3 MB queued past a 64 KiB bound without the policy firing")
	}
	if slowest > 50*time.Millisecond {
		t.Errorf("a Send took %s: producers must not wait for the peer", slowest)
	}
	select {
	case err := <-closed:
		var ne *NotificationError
		if !errors.As(err, &ne) || ne.Code != ErrCodeCease || ne.Subcode != CeaseOutOfResources {
			t.Fatalf("session ended with %v, want Cease/Out-of-Resources", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("overflowing session was not ended")
	}
	if got := dropCount(peer, dropOverflow) - before; got != 1 {
		t.Errorf("bgp_session_out_queue_drops_total{reason=overflow} moved by %d, want 1", got)
	}
	if sa.Send(bigUpdate(0)) == nil {
		t.Error("Send succeeded on an ended session")
	}
	waitWriterGone(t, sa)
}

// TestOutQueueOverflowDeliversCease: when the peer was only slow — it
// resumes reading before the drain time is up — the Cease reaches it.
func TestOutQueueOverflowDeliversCease(t *testing.T) {
	sa, sb, gate := netPipeSessionsGated(t, Config{}, Config{})
	sa.bounds = outBounds{limit: 64 << 10, drain: 5 * time.Second, stall: time.Hour}
	gate.hold()
	for i := 0; i < 1000; i++ {
		if sa.Send(bigUpdate(i)) != nil {
			break
		}
	}
	gate.resume()
	select {
	case <-sb.Done():
		var n *Notification
		if !errors.As(sb.Err(), &n) || n.Code != ErrCodeCease || n.Subcode != CeaseOutOfResources {
			t.Fatalf("peer's session ended with %v, want the Cease/Out-of-Resources notification", sb.Err())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peer never saw the session end")
	}
	waitWriterGone(t, sa)
}

// TestWaitSendRoom: the dump's wait returns at once while the queue is
// short, returns when the peer drains it, and ends a peer whose
// transport accepts nothing for the stall time.
func TestWaitSendRoom(t *testing.T) {
	const peer = "test:stalled"
	sa, _, gate := netPipeSessionsGated(t, Config{PeerName: peer}, Config{})
	sa.bounds = outBounds{limit: outQueueLimit, drain: 100 * time.Millisecond, stall: 150 * time.Millisecond}
	if err := sa.WaitSendRoom(); err != nil {
		t.Fatalf("empty queue: %v", err)
	}
	fill := func() { // queue twice the room mark without waiting, as a fan-out would
		for i := 0; i < 2*outQueueRoom/3000; i++ {
			if err := sa.send(bigUpdate(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A reading peer: the wait ends when the queue has drained.
	fill()
	if err := sa.WaitSendRoom(); err != nil {
		t.Fatalf("draining peer: %v", err)
	}
	// A wedged one: no progress for the stall time ends the session.
	before := dropCount(peer, dropStalled)
	gate.hold()
	fill()
	start := time.Now()
	err := sa.WaitSendRoom()
	var ne *NotificationError
	if !errors.As(err, &ne) || ne.Subcode != CeaseOutOfResources {
		t.Fatalf("stalled peer: WaitSendRoom = %v, want Cease/Out-of-Resources", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("stall detected after %s, bound is 150ms", waited)
	}
	if got := dropCount(peer, dropStalled) - before; got != 1 {
		t.Errorf("bgp_session_out_queue_drops_total{reason=stalled} moved by %d, want 1", got)
	}
	select {
	case <-sa.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("stalled session was not ended")
	}
	waitWriterGone(t, sa)
}

// TestSendIsPacedByTheTransport: a caller that produces faster than the
// peer reads is held at the room mark, not run into the queue bound —
// here a bound a tight loop would pass in a millisecond — and several
// such callers at once all get through.
func TestSendIsPacedByTheTransport(t *testing.T) {
	var got atomic.Int64
	sa, _ := netPipeSessions(t, Config{}, Config{OnUpdate: func(u *Update) { got.Add(int64(len(u.NLRI))) }})
	sa.bounds = outBounds{limit: 2 * outQueueRoom, drain: time.Second, stall: 5 * time.Second}
	const senders, each = 4, 300 // 4 x 300 x 3 KB: seven times the bound
	var wg sync.WaitGroup
	var deepest atomic.Int64
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				var err error
				if i%2 == 0 {
					err = sa.Send(bigUpdate(g*each + i))
				} else {
					err = sa.SendBatch([]*Update{bigUpdate(g*each + i)})
				}
				if err != nil {
					t.Errorf("sender %d: %v", g, err)
					return
				}
				if d := int64(sa.out.depth()); d > deepest.Load() {
					deepest.Store(d)
				}
			}
		}(g)
	}
	wg.Wait()
	waitCount(t, "updates delivered", got.Load, senders*each)
	if d := deepest.Load(); d > outQueueRoom+senders*MaxMessageLen {
		t.Errorf("queue reached %d bytes: senders were not held at the %d-byte room mark", d, outQueueRoom)
	}
}

// TestCloseBoundedOnWedgedPeer: Close waits for the writer at most the
// drain time, then closes the transport under it; it never hangs, and
// it still reports an administrative close.
func TestCloseBoundedOnWedgedPeer(t *testing.T) {
	closed := make(chan error, 1)
	sa, _, gate := netPipeSessionsGated(t, Config{OnClose: func(err error) { closed <- err }}, Config{})
	sa.bounds = outBounds{limit: outQueueLimit, drain: 100 * time.Millisecond, stall: time.Hour}
	gate.hold()
	for i := 0; i < 50; i++ {
		if err := sa.Send(bigUpdate(i)); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	sa.Close()
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("Close took %s against a wedged peer, drain bound is 100ms", took)
	}
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("OnClose(%v), want nil for an administrative close", err)
		}
	default:
		t.Fatal("OnClose had not run when Close returned")
	}
	waitWriterGone(t, sa)
}

// TestCloseDeliversQueueThenCease: everything queued before Close, and
// then the Cease, reach a peer that reads — in order.
func TestCloseDeliversQueueThenCease(t *testing.T) {
	var mu sync.Mutex
	var got []string
	sa, sb := netPipeSessions(t, Config{}, Config{
		OnUpdate: func(u *Update) {
			mu.Lock()
			got = append(got, u.NLRI[0].Prefix.String())
			mu.Unlock()
		},
	})
	const n = 300
	for i := 0; i < n; i++ {
		if err := sa.Send(bigUpdate(i)); err != nil {
			t.Fatal(err)
		}
	}
	sa.Close()
	select {
	case <-sb.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("peer never saw the Cease")
	}
	var note *Notification
	if !errors.As(sb.Err(), &note) || note.Subcode != CeaseAdminShutdown {
		t.Fatalf("peer's session ended with %v, want the administrative Cease", sb.Err())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("peer got %d of %d updates queued before Close", len(got), n)
	}
	for i, p := range got {
		if want := bigUpdate(i).NLRI[0].Prefix.String(); p != want {
			t.Fatalf("update %d is %s, want %s: queue is not FIFO", i, p, want)
		}
	}
	waitWriterGone(t, sa)
}

// TestWriterCoalescesToOneWrite: what queues up behind a blocked write
// leaves in one transport write, capped at outWriteMax.
func TestWriterCoalescesToOneWrite(t *testing.T) {
	sa, _, gate := netPipeSessionsGated(t, Config{}, Config{})
	cw := &countingConn{Conn: sa.conn}
	sa.conn = cw // before any further write: the writer is idle
	gate.hold()
	small := &Update{Attrs: baseAttrsASN(65001), NLRI: []NLRI{{Prefix: pfx("10.0.0.0/24")}}}
	for i := 0; i < 2000; i++ { // ~100 KB of 50-byte messages
		if err := sa.Send(small); err != nil {
			t.Fatal(err)
		}
	}
	gate.resume()
	waitFor(t, "the queue to drain", func() bool { return sa.out.depth() == 0 })
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if len(cw.sizes) > 6 {
		t.Errorf("2000 queued messages left in %d writes, want a handful", len(cw.sizes))
	}
	for _, n := range cw.sizes {
		if n > outWriteMax {
			t.Errorf("a coalesced write of %d bytes exceeds outWriteMax", n)
		}
	}
}

type countingConn struct {
	net.Conn
	mu    sync.Mutex
	sizes []int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.sizes = append(c.sizes, len(p))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (q *outQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.bytes
}
