package rpki

import (
	"net"
	"net/netip"
	"sync"
	"time"
)

// ClientConfig configures an RTR client.
type ClientConfig struct {
	// Name labels the client in logs ("amsix", "inet").
	Name string
	// Dial opens a transport to the cache server. The client redials
	// through it after session loss.
	Dial func() (net.Conn, error)
	// StaleExpiry is how long after session loss the cache's data is
	// still considered fresh. Once it lapses the cache is marked stale
	// — but retained: validation keeps running on stale ROAs, so
	// Invalid routes stay rejected (fail closed, paper §3.3) rather
	// than reverting to NotFound and waving hijacks through. Zero
	// selects DefaultStaleExpiry.
	StaleExpiry time.Duration
	// OnChange runs after every applied synchronization (End of Data)
	// and after a stale-expiry trip, so consumers can revalidate held
	// routes. Runs on the client's session goroutine.
	OnChange func()
	// Logf receives session logs.
	Logf func(format string, args ...any)
}

// DefaultStaleExpiry is the post-disconnect freshness window.
const DefaultStaleExpiry = 30 * time.Second

// redial backoff bounds.
const (
	redialMin = 10 * time.Millisecond
	redialMax = 500 * time.Millisecond
)

// Client is the router side of the RTR protocol: it maintains a live
// ValidatedCache synchronized from a cache server, converging
// incrementally on Serial Notify and failing closed when the session
// drops and the data expires. Validate may be called from any
// goroutine.
type Client struct {
	cfg   ClientConfig
	cache *Store

	mu        sync.Mutex
	changeFn  func()
	conn      net.Conn
	sessionID uint16
	synced    bool // at least one End of Data applied this incarnation
	everSync  bool // ever synchronized (serial is meaningful)
	stale     bool
	connected bool
	closed    bool
	expiry    *time.Timer
}

// NewClient creates a client and starts its session loop.
func NewClient(cfg ClientConfig) *Client {
	if cfg.StaleExpiry <= 0 {
		cfg.StaleExpiry = DefaultStaleExpiry
	}
	c := &Client{cfg: cfg, cache: NewStore(), changeFn: cfg.OnChange}
	go c.run()
	return c
}

// SetOnChange replaces the change callback. Useful when the consumer
// (e.g. a router revalidating its exports) is constructed after the
// client it validates through.
func (c *Client) SetOnChange(fn func()) {
	c.mu.Lock()
	c.changeFn = fn
	c.mu.Unlock()
}

func (c *Client) notifyChange() {
	c.mu.Lock()
	fn := c.changeFn
	c.mu.Unlock()
	if fn != nil {
		fn()
	}
}

func (c *Client) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf("rtr[%s]: "+format, append([]any{c.cfg.Name}, args...)...)
	}
}

// Validate classifies (prefix, origin) against the local validated
// cache, counting the outcome and observing validation latency.
func (c *Client) Validate(prefix netip.Prefix, origin uint32) State {
	start := time.Now()
	st := c.cache.Validate(prefix, origin)
	validations[st].Inc()
	validationSeconds.Observe(time.Since(start).Seconds())
	return st
}

// Serial returns the serial of the last applied synchronization.
func (c *Client) Serial() uint32 { return c.cache.Serial() }

// Close terminates the session loop.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	conn := c.conn
	if c.expiry != nil {
		c.expiry.Stop()
	}
	wasConnected := c.connected
	c.connected = false
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	if wasConnected {
		rtrUpGauge.Add(-1)
	}
}

func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// run is the session loop: dial, synchronize, follow notifies; on
// transport loss arm the stale-expiry timer and redial with backoff.
func (c *Client) run() {
	backoff := redialMin
	for !c.isClosed() {
		rtrDials.Inc()
		conn, err := c.cfg.Dial()
		if err != nil {
			c.logf("dial: %v", err)
			time.Sleep(backoff)
			if backoff *= 2; backoff > redialMax {
				backoff = redialMax
			}
			continue
		}
		backoff = redialMin
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return
		}
		c.conn = conn
		c.connected = true
		c.synced = false
		c.mu.Unlock()
		rtrUpGauge.Add(1)

		err = c.session(conn)
		conn.Close()
		c.mu.Lock()
		c.connected = false
		c.conn = nil
		closed := c.closed
		if !closed {
			// Freshness countdown: if no session comes back within the
			// window, trip to stale (fail closed) and tell consumers.
			if c.expiry != nil {
				c.expiry.Stop()
			}
			c.expiry = time.AfterFunc(c.cfg.StaleExpiry, c.tripStale)
		}
		c.mu.Unlock()
		rtrUpGauge.Add(-1)
		if closed {
			return
		}
		rtrSessionDrops.Inc()
		c.logf("session lost: %v", err)
		time.Sleep(backoff)
	}
}

// tripStale marks the cache stale after the freshness window lapses
// with no session.
func (c *Client) tripStale() {
	c.mu.Lock()
	if c.closed || c.connected || c.stale {
		c.mu.Unlock()
		return
	}
	c.stale = true
	c.mu.Unlock()
	staleTrips.Inc()
	staleGauge.Add(1)
	c.logf("freshness window lapsed: validating on stale data (fail closed)")
	c.notifyChange()
}

// session drives one established RTR session to completion. Outbound
// PDUs go through a dedicated writer goroutine so the read loop is
// never blocked on an unbuffered transport while the cache is itself
// mid-write (both ends of an in-memory pipe writing is a deadlock).
func (c *Client) session(conn net.Conn) error {
	out := make(chan PDU, 16)
	go func() {
		for p := range out {
			if err := WritePDU(conn, p); err != nil {
				conn.Close() // unblocks the read loop
				return
			}
		}
	}()
	defer close(out)

	// Resume incrementally when this incarnation has synchronized
	// before; first contact does a full reset sync.
	query := PDU{Type: PDUResetQuery}
	c.mu.Lock()
	if c.everSync {
		query = PDU{Type: PDUSerialQuery, Session: c.sessionID, Serial: c.cache.Serial()}
	}
	c.mu.Unlock()
	out <- query

	var (
		inResponse bool
		full       bool // reset sync: collect a snapshot; else apply deltas
		snapshot   []ROA
		deltas     []Delta
		started    time.Time
		// awaiting coalesces Serial Notifies: one query in flight; a
		// notify received meanwhile re-queries after End of Data.
		awaiting = true
		notified uint32
	)
	fullRequested := query.Type == PDUResetQuery
	for {
		p, err := ReadPDU(conn)
		if err != nil {
			return err
		}
		switch p.Type {
		case PDUCacheResponse:
			inResponse = true
			full = fullRequested
			snapshot, deltas = nil, nil
			started = time.Now()
		case PDUIPv4Prefix, PDUIPv6Prefix:
			if !inResponse {
				continue
			}
			if full {
				if p.Announce {
					snapshot = append(snapshot, p.ROA)
				}
			} else {
				deltas = append(deltas, Delta{Announce: p.Announce, ROA: p.ROA})
			}
		case PDUEndOfData:
			if !inResponse {
				continue
			}
			if full {
				c.cache.Reset(p.Serial, snapshot)
			} else {
				for _, d := range deltas {
					d.Serial = p.Serial
					c.cache.Apply(d)
				}
				// Serial advances even when no delta touched the trie.
				c.cache.SetSerial(p.Serial)
			}
			inResponse = false
			c.mu.Lock()
			c.sessionID = p.Session
			c.synced = true
			c.everSync = true
			wasStale := c.stale
			c.stale = false
			if c.expiry != nil {
				c.expiry.Stop()
			}
			c.mu.Unlock()
			if wasStale {
				staleGauge.Add(-1)
			}
			rtrSyncs.Inc()
			rtrSyncSeconds.Observe(time.Since(started).Seconds())
			fullRequested = false
			awaiting = false
			c.notifyChange()
			if notified > c.cache.Serial() {
				out <- PDU{Type: PDUSerialQuery, Session: p.Session, Serial: c.cache.Serial()}
				awaiting = true
			}
		case PDUSerialNotify:
			if p.Serial > notified {
				notified = p.Serial
			}
			if !awaiting && notified > c.cache.Serial() {
				out <- PDU{Type: PDUSerialQuery, Session: p.Session, Serial: c.cache.Serial()}
				awaiting = true
			}
		case PDUCacheReset:
			// Our serial is outside the cache's window: full resync,
			// keeping current data until the new snapshot lands.
			fullRequested = true
			awaiting = true
			out <- PDU{Type: PDUResetQuery}
		case PDUErrorReport:
			c.logf("cache error: %s", p.Text)
		}
	}
}
