package bgp

import (
	"errors"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// The session output path: every byte a Session sends — OPEN,
// KEEPALIVE, UPDATE blocks, NOTIFICATION — is appended to one bounded
// FIFO queue and leaves through one writer goroutine, the only code
// that touches the transport for writing. Producers encode and append.
// The fan-out path (FanOut) never waits for a peer; the producers that
// address one session — Send, SendBatch, a table dump — wait for room
// (WaitSendRoom) once a quarter megabyte is queued, so they are paced by
// the transport like writers to a socket. What happens when the peer
// does not keep up is decided here, per session, and nowhere else.

const (
	// outQueueLimit bounds the bytes queued (and in flight) on one
	// session. Producers on the fan-out path never wait, so the queue
	// has to absorb the largest burst a healthy consumer can fall
	// behind by: the withdrawal of a neighbor's whole table when its
	// session drops — 8 bytes per packed ADD-PATH /24, so 8 MB for a
	// full Internet table of about a million routes — with as much
	// again for the churn that keeps arriving meanwhile. The value
	// follows from the protocol's encoding and the size of the
	// Internet, not from the deployment, which is why it is not
	// configurable. A consumer further behind than this is cheaper to
	// resynchronize (close, redial, fresh dump) than to keep feeding.
	outQueueLimit = 16 << 20

	// outQueueRoom is the queue depth up to which a producer that
	// addresses one session (Send, SendBatch, a table dump) carries on
	// without waiting: a few transport writes' worth, so the writer
	// never idles behind a bulk sender, and a sliver of outQueueLimit,
	// so the headroom stays with the fan-out, which cannot wait.
	outQueueRoom = 256 << 10

	// outWriteMax caps one transport write. The writer coalesces what
	// is queued up to the largest payload a tunnel mux frame carries
	// (its length field is two bytes), so a coalesced write crosses an
	// experiment's tunnel as one frame.
	outWriteMax = 0xffff

	// outShareMin is the block size from which a fanned-out block is
	// queued by reference instead of being copied into the session's
	// own buffer. A reference pins the block's pooled buffer (4 KiB at
	// least) until the slowest session has written it, which for the
	// 60-byte blocks of single-route churn would hold sixty times the
	// bytes the bound accounts for; copying those costs less than the
	// reference counting. From half a pooled buffer up the pinned
	// memory is at most twice the accounted bytes, and the blocks that
	// get large — a dropped neighbor's withdrawals — are the ones worth
	// holding once for all sessions.
	outShareMin = encodeBufCap / 2

	// outDrainTimeout bounds how long ending a session waits for the
	// writer to deliver what is queued (MRAI-held routes and the Cease
	// on Close, the NOTIFICATION on an error) before the transport is
	// closed under it. In-memory and socket writes complete in
	// microseconds unless the peer is wedged, and a wedged peer must
	// not hold up whoever is closing.
	outDrainTimeout = time.Second

	// outStallTimeout is how long a producer waits for room without the
	// transport accepting a single byte before the peer counts as
	// stalled. Any progress restarts the clock; a slow link is fine, a
	// dead one is not worth the hold timer's ninety seconds.
	outStallTimeout = 10 * time.Second
)

// Reasons a session is ended by the slow-consumer policy
// (bgp_session_out_queue_drops_total{peer,reason}).
const (
	dropOverflow = "overflow" // queue over outQueueLimit
	dropStalled  = "stalled"  // no transport progress for outStallTimeout while a producer waited
)

// errSessionClosing is returned to producers once the queue has stopped
// accepting messages.
var errSessionClosing = errors.New("bgp: session closing")

// outQueue is a session's output queue. Entries are buffers of framed
// messages in send order. The last entry may be the session's own
// accumulation buffer, into which single messages are encoded and small
// blocks copied under the lock; blocks of outShareMin bytes or more are
// shared, read-only, with the other sessions they were fanned out to.
type outQueue struct {
	mu      sync.Mutex
	entries []*encodeBuffer
	// tail reports that the last entry belongs to this queue alone and
	// may be appended to.
	tail bool
	// bytes counts what is queued or being written; written what the
	// transport has accepted so far.
	bytes   int
	written uint64
	// started: the writer goroutine runs. closed: no further messages
	// are accepted and the writer exits once the queue is empty.
	started, closed bool
	// verdict is set when the slow-consumer policy ended the session,
	// and abort is the timer that closes the transport under a writer
	// that cannot deliver the Cease.
	verdict *NotificationError
	abort   *time.Timer
	// waiters counts the producers parked in WaitSendRoom.
	waiters int
	wake    chan struct{} // capacity 1: entries were added, or closed was set
	room    chan struct{} // capacity 1: bytes fell to outQueueRoom, or closed was set
}

func (q *outQueue) init() {
	q.wake = make(chan struct{}, 1)
	q.room = make(chan struct{}, 1)
}

func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// admitLocked checks that the queue may take another message or block.
// The bound is tested before the append, so the queue may end up over
// it by the one block that follows the last one admitted.
func (s *Session) admitLocked() error {
	q := &s.out
	if q.closed {
		return errSessionClosing
	}
	if q.bytes > s.bounds.limit {
		return s.dropSlowConsumerLocked(dropOverflow)
	}
	return nil
}

// tailLocked returns the session's own accumulation buffer, starting a
// new one when there is none or it has reached a transport write.
func (q *outQueue) tailLocked(need int) *encodeBuffer {
	if q.tail {
		if eb := q.entries[len(q.entries)-1]; len(eb.buf)+need <= outWriteMax {
			return eb
		}
	}
	eb := getEncodeBuffer()
	eb.refs.Store(1)
	q.entries = append(q.entries, eb)
	q.tail = true
	return eb
}

// queuedLocked accounts for n bytes holding msgs messages of type typ
// just appended. Messages are counted when queued: a shared block counts
// in full on every session that takes it.
func (s *Session) queuedLocked(n int, typ uint8, msgs int) {
	q := &s.out
	q.bytes += n
	s.BytesOut.Add(uint64(n))
	s.metrics.msgsOut[typ].Add(uint64(msgs))
	s.metrics.queueBytes.Set(int64(q.bytes))
	if typ == MsgUpdate {
		s.UpdatesOut.Add(uint64(msgs))
	}
}

// write encodes m straight into the queue. Like every producer entry
// point it returns as soon as the bytes are queued.
func (s *Session) write(m Message) error {
	q := &s.out
	q.mu.Lock()
	if err := s.admitLocked(); err != nil {
		q.mu.Unlock()
		return err
	}
	idle := len(q.entries) == 0
	eb := q.tailLocked(MaxMessageLen)
	b, err := appendMessage(eb.buf, m, &s.enc)
	if err != nil {
		if len(eb.buf) == 0 { // the buffer was started for m: take it back
			q.entries, q.tail = q.entries[:len(q.entries)-1], false
			eb.release()
		}
		q.mu.Unlock()
		return err
	}
	n := len(b) - len(eb.buf)
	eb.buf = b
	outBytes.Observe(float64(n))
	s.queuedLocked(n, m.Type(), 1)
	q.mu.Unlock()
	if idle {
		signal(q.wake)
	}
	return nil
}

// enqueueBlock appends an encoded block of UPDATEs: by copy into the
// session's own buffer when small, by reference otherwise. The caller
// keeps its reference to b.buf either way.
func (s *Session) enqueueBlock(b block) error {
	n := len(b.buf.buf)
	if n == 0 {
		return nil
	}
	q := &s.out
	q.mu.Lock()
	if err := s.admitLocked(); err != nil {
		q.mu.Unlock()
		return err
	}
	idle := len(q.entries) == 0
	if n < outShareMin {
		eb := q.tailLocked(n)
		eb.buf = append(eb.buf, b.buf.buf...)
	} else {
		b.buf.hold()
		q.entries = append(q.entries, b.buf)
		q.tail = false
	}
	s.queuedLocked(n, MsgUpdate, b.msgs)
	q.mu.Unlock()
	if idle {
		signal(q.wake)
	}
	return nil
}

// dropSlowConsumerLocked ends the session because its peer does not
// keep up: what is queued is discarded — it describes state the peer
// will get afresh from the dump after it redials — and replaced by a
// Cease/Out-of-Resources, which the writer delivers if the transport
// still takes it; the abort timer closes the transport if it does not.
// The rest of the teardown runs on the writer goroutine (runWriter), so
// the producer that tripped the bound — a neighbor's read goroutine, a
// dump holding table locks — returns at once. Called with q.mu held.
func (s *Session) dropSlowConsumerLocked(reason string) error {
	q := &s.out
	ne := notif(ErrCodeCease, CeaseOutOfResources)
	q.closed, q.verdict = true, ne
	for i, eb := range q.entries {
		q.bytes -= len(eb.buf)
		eb.drop()
		q.entries[i] = nil
	}
	q.entries, q.tail = q.entries[:0], false
	eb := q.tailLocked(MaxMessageLen)
	eb.buf, _ = appendMessage(eb.buf, &Notification{Code: ne.Code, Subcode: ne.Subcode}, &s.enc) // a NOTIFICATION always fits
	s.queuedLocked(len(eb.buf), MsgNotification, 1)
	q.abort = time.AfterFunc(s.bounds.drain, func() { _ = s.conn.Close() })
	signal(q.wake)
	signal(q.room)
	s.metrics.dropped(reason)
	s.logf("output queue %s: closing session (Cease/Out-of-Resources)", reason)
	return ne
}

// WaitSendRoom blocks until the output queue has drained to
// outQueueRoom. Send and SendBatch end with it; a table dump calls it
// between blocks, from the session's own goroutine and outside any
// table lock. The fan-out path never does. A peer whose transport
// accepts nothing for outStallTimeout while a producer waits is ended
// as a slow consumer. The error reports that the session is closing or
// gone.
func (s *Session) WaitSendRoom() error {
	q := &s.out
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.closed {
			return errSessionClosing
		}
		if q.bytes <= outQueueRoom {
			return nil
		}
		written := q.written
		q.waiters++
		q.mu.Unlock()
		t := time.NewTimer(s.bounds.stall)
		var timedOut bool
		select {
		case <-q.room:
			t.Stop()
		case <-t.C:
			timedOut = true
		}
		q.mu.Lock()
		if q.waiters--; q.waiters > 0 && (q.closed || q.bytes <= outQueueRoom) {
			signal(q.room) // one token wakes one waiter: pass it on
		}
		if timedOut && !q.closed && q.written == written {
			return s.dropSlowConsumerLocked(dropStalled)
		}
	}
}

// runWriter is the session's writer goroutine.
func (s *Session) runWriter() {
	err := s.writeLoop()
	close(s.writerDone)
	s.out.mu.Lock()
	verdict := s.out.verdict
	s.out.mu.Unlock()
	switch {
	case verdict != nil:
		s.shutdown(verdict)
	case err != nil:
		s.shutdown(err)
	}
}

// writeLoop drains the queue into the transport until the queue is
// closed and empty, or a write fails.
func (s *Session) writeLoop() error {
	q := &s.out
	var batch []*encodeBuffer
	for {
		q.mu.Lock()
		for len(q.entries) == 0 {
			closed := q.closed
			q.mu.Unlock()
			if closed {
				return nil
			}
			<-q.wake
			q.mu.Lock()
		}
		batch, q.entries, q.tail = q.entries, batch[:0], false
		q.mu.Unlock()
		err := s.writeBatch(batch)
		clear(batch)
		if err != nil {
			return err
		}
	}
}

// writeBatch writes the buffers in order, coalescing neighbors into one
// transport write while they fit outWriteMax.
func (s *Session) writeBatch(batch []*encodeBuffer) error {
	q := &s.out
	for i := 0; i < len(batch); {
		j, n := i+1, len(batch[i].buf)
		for j < len(batch) && n+len(batch[j].buf) <= outWriteMax {
			n += len(batch[j].buf)
			j++
		}
		data := batch[i].buf
		var joined *encodeBuffer
		if j > i+1 {
			joined = getEncodeBuffer()
			for _, eb := range batch[i:j] {
				joined.buf = append(joined.buf, eb.buf...)
			}
			data = joined.buf
		}
		_, err := s.conn.Write(data)
		if joined != nil {
			joined.release()
		}
		for _, eb := range batch[i:j] {
			eb.drop()
		}
		q.mu.Lock()
		q.bytes -= n
		q.written += uint64(n)
		s.metrics.queueBytes.Set(int64(q.bytes))
		if q.waiters > 0 && q.bytes <= outQueueRoom {
			signal(q.room)
		}
		q.mu.Unlock()
		if err != nil {
			return err
		}
		i = j
	}
	return nil
}

// stopWriter stops accepting messages, gives the writer outDrainTimeout
// to deliver what is queued when drain is set, then closes the
// transport and waits for the writer to exit. Only the session's
// terminal path calls it (under closeOnce).
func (s *Session) stopWriter(drain bool) {
	q := &s.out
	q.mu.Lock()
	q.closed = true
	started, abort := q.started, q.abort
	q.mu.Unlock()
	signal(q.wake)
	signal(q.room)
	if drain && started {
		t := time.NewTimer(s.bounds.drain)
		select {
		case <-s.writerDone:
		case <-t.C:
			s.logf("peer did not take the queued messages within %s; closing the transport", s.bounds.drain)
		}
		t.Stop()
	}
	_ = s.conn.Close()
	if started {
		<-s.writerDone
	}
	if abort != nil {
		abort.Stop()
	}
	s.metrics.queueBytes.Set(0)
}

// outBounds holds the output path's limits. Sessions run with
// defaultOutBounds; the field exists so tests can reach the policy
// without queueing sixteen megabytes or waiting ten seconds.
type outBounds struct {
	limit        int
	drain, stall time.Duration
}

var defaultOutBounds = outBounds{limit: outQueueLimit, drain: outDrainTimeout, stall: outStallTimeout}

// dropped counts one session ended by the slow-consumer policy. The
// series is resolved here, not at construction: it exists only for
// sessions that were ever dropped.
func (m *sessionMetrics) dropped(reason string) {
	telemetry.Default().Counter("bgp_session_out_queue_drops_total",
		telemetry.L("peer", m.peer), telemetry.L("reason", reason)).Inc()
}
