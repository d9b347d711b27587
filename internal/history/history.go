// Package history is the platform's durable RIB history store: an
// embedded, append-only segment log fed by the telemetry event stream,
// with time-travel queries over it.
//
// The paper's operators lean on post-hoc forensics — "what did the
// AMS-IX adj-RIB-in look like when the hijack started?" (§4.2, §5) —
// and route-leak / community-churn studies need replayable per-prefix
// update histories deduplicated across redundant vantage points. The
// store provides both for the reproduction:
//
//   - RouteMonitoring events from every router land in fixed-size
//     binary segments with a per-segment prefix index and CRC, sealed
//     and rotated by size or age (segment.go);
//   - a content-hash deduper collapses identical route events observed
//     via multiple PoPs/collectors into one stored record carrying a
//     vantage bitmap (dedup.go);
//   - retention drops sealed segments past a configurable window and
//     compaction collapses intra-segment churn (announce/withdraw
//     flaps) into boundary state deltas;
//   - the query layer reconstructs state: StateAt(prefix, t) time
//     travel, Between(prefix, t0, t1) event ranges, and
//     DiffPoPs(popA, popB, t) divergence reports (query.go).
//
// Append is synchronous: the platform's monitor goroutine calls it for
// each event, so the telemetry emitter's bounded queue is the one place
// events drop when the store falls behind. The active segment lives
// in memory until sealed; Close seals it, so a cleanly shut down store
// is fully reconstructible from the on-disk log alone.
package history

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Defaults for Config zero values.
const (
	DefaultMaxSegmentBytes     = 1 << 20
	DefaultMaxSegmentAge       = time.Minute
	DefaultDedupWindow         = 2 * time.Second
	DefaultMaintenanceInterval = 500 * time.Millisecond
)

// Config configures a Store.
type Config struct {
	// Dir is the segment-log directory (created if missing). Required.
	Dir string
	// MaxSegmentBytes seals the active segment when its record region
	// reaches this size (<= 0 selects DefaultMaxSegmentBytes).
	MaxSegmentBytes int
	// MaxSegmentAge seals the active segment when its oldest record
	// reaches this age (<= 0 selects DefaultMaxSegmentAge).
	MaxSegmentAge time.Duration
	// DedupWindow bounds how far apart two observations of the same
	// route event may be and still merge into one record (<= 0 selects
	// DefaultDedupWindow). Merging only happens while the original
	// record is in the active segment.
	DedupWindow time.Duration
	// Retention, when > 0, deletes sealed segments whose newest
	// observation is older than the window. It bounds the reconstruction
	// horizon: StateAt cannot see routes whose only events were retired.
	Retention time.Duration
	// CompactAfter, when > 0, compacts sealed segments older than this:
	// per (prefix, pathID, peer) group, intra-segment churn is collapsed
	// to the boundary records (first and last), trading intra-segment
	// resolution for space. State reconstruction at or after the
	// segment's end stays exact.
	CompactAfter time.Duration
	// MaintenanceInterval paces the seal-by-age / retention / compaction
	// loop (0 selects DefaultMaintenanceInterval, < 0 disables the
	// background loop — tests drive Maintain directly).
	MaintenanceInterval time.Duration
	// Registry receives the history_* metrics (nil selects
	// telemetry.Default()).
	Registry *telemetry.Registry
	// Logf receives store event logs.
	Logf func(format string, args ...any)
}

// Stats is a point-in-time snapshot of the store's accounting, the
// numbers the peeringd -watch history line and peering-cli render.
type Stats struct {
	// Stored counts records appended to the log.
	Stored uint64
	// Deduped counts observations merged into an existing record.
	Deduped uint64
	// Skipped counts non-route events (PeerUp/PeerDown).
	Skipped uint64
	// Records is the number of records currently in the log (sealed +
	// active segments). Unlike Stored — a lifetime ingest counter that
	// restarts at zero on reopen — Records reflects what is on disk.
	Records uint64
	// Segments is the number of live segments (sealed + active).
	Segments int
	// SealedBytes is the total record-region size of sealed segments.
	SealedBytes int64
	// RetiredSegments counts segments deleted by retention.
	RetiredSegments uint64
	// CompactedEvents counts records removed by compaction.
	CompactedEvents uint64
}

// Store is the embedded RIB history store.
type Store struct {
	cfg Config

	mu      sync.Mutex
	active  *segment
	sealed  []*segment
	nextSeq uint64
	// vantages is the live bit-ordered vantage table; vantageBits maps
	// names back to bit indexes.
	vantages    []string
	vantageBits map[string]int
	dedup       *deduper

	stored    uint64
	deduped   uint64
	skipped   uint64
	retired   uint64
	compacted uint64

	met       storeMetrics
	stop      chan struct{} // closed by Close: the maintenance loop exits
	done      chan struct{} // closed when it has
	closeOnce sync.Once
}

// Open opens (or creates) the store rooted at cfg.Dir, loading every
// sealed segment already on disk. A corrupt segment fails the open —
// the reader fails closed rather than silently skipping history.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("history: Config.Dir is required")
	}
	if cfg.MaxSegmentBytes <= 0 {
		cfg.MaxSegmentBytes = DefaultMaxSegmentBytes
	}
	if cfg.MaxSegmentAge <= 0 {
		cfg.MaxSegmentAge = DefaultMaxSegmentAge
	}
	if cfg.DedupWindow <= 0 {
		cfg.DedupWindow = DefaultDedupWindow
	}
	if cfg.MaintenanceInterval == 0 {
		cfg.MaintenanceInterval = DefaultMaintenanceInterval
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		cfg:         cfg,
		vantageBits: make(map[string]int),
		dedup:       newDeduper(cfg.DedupWindow),
		met:         newStoreMetrics(cfg.Registry),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	s.active = newSegment(s.nextSeq)
	s.active.vantages = s.vantages
	s.nextSeq++
	go s.run()
	return s, nil
}

// load reads every sealed segment file under Dir.
func (s *Store) load() error {
	paths, err := filepath.Glob(filepath.Join(s.cfg.Dir, "seg-*.vhs"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		seg, err := decodeSegment(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		seg.path = path
		s.sealed = append(s.sealed, seg)
		if seg.seq >= s.nextSeq {
			s.nextSeq = seg.seq + 1
		}
		// The vantage table is append-only across the store's life, so
		// later segments carry supersets of earlier tables; adopt the
		// longest and verify the rest agree.
		if len(seg.vantages) > len(s.vantages) {
			s.vantages = seg.vantages
		}
	}
	sort.Slice(s.sealed, func(i, j int) bool { return s.sealed[i].seq < s.sealed[j].seq })
	for _, seg := range s.sealed {
		for i, v := range seg.vantages {
			if s.vantages[i] != v {
				return fmt.Errorf("%s: vantage table diverges at bit %d: %q vs %q", seg.path, i, v, s.vantages[i])
			}
		}
	}
	for i, v := range s.vantages {
		s.vantageBits[v] = i
	}
	return nil
}

// run is the maintenance goroutine: it paces Maintain until Close.
func (s *Store) run() {
	defer close(s.done)
	var tickC <-chan time.Time
	if s.cfg.MaintenanceInterval > 0 {
		tick := time.NewTicker(s.cfg.MaintenanceInterval)
		defer tick.Stop()
		tickC = tick.C
	}
	for {
		select {
		case <-s.stop:
			return
		case <-tickC:
			s.Maintain(time.Now())
		}
	}
}

// Append applies one telemetry event to the log: a route event becomes
// a record (or merges into one, see dedup.go), any other kind is counted
// as skipped. It returns once the event is applied, so a query issued
// next sees it. It must not be called after Close.
func (s *Store) Append(e telemetry.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.Kind != telemetry.EventRouteMonitoring || !e.Prefix.IsValid() {
		s.skipped++
		s.met.skipped.Inc()
		return
	}
	bit := s.vantageBitLocked(e.PoP)
	h := contentHash(e)

	// Dedup merge path: the same route event seen from another vantage
	// within the window patches the original record in place (only
	// possible while it still sits in the active segment).
	if off, rec, ok := s.dedup.lookup(h, e.Time, s.active.seq); ok {
		if rec&bit == 0 {
			s.dedup.merge(h, bit)
			s.active.mergeVantage(off, bit)
			s.active.observe(e.Time)
			s.deduped++
			s.met.deduped.Inc()
			return
		}
		// Same vantage repeating the same content within the window is a
		// distinct protocol event (a flap leg) — store it; merging would
		// erase the flap from the timeline.
	}

	off := s.active.append(Record{
		Time: e.Time, Peer: e.Peer, PeerASN: e.PeerASN,
		Prefix: e.Prefix, PathID: e.PathID, NextHop: e.NextHop,
		ASPath: e.ASPath, Withdraw: e.Withdraw,
		Vantage: bit, Dups: 1,
	})
	s.dedup.store(h, e.Time, s.active.seq, off, bit)
	s.stored++
	s.met.stored.Inc()
	if len(s.active.buf) >= s.cfg.MaxSegmentBytes {
		s.sealLocked()
	}
}

// vantageBitLocked returns (allocating if needed) the bitmap bit for a
// PoP/collector name. The table is capped at 64 vantages; beyond that,
// events fold into the last bit (and the overflow is counted).
func (s *Store) vantageBitLocked(name string) uint64 {
	if i, ok := s.vantageBits[name]; ok {
		return 1 << uint(i)
	}
	if len(s.vantages) >= 64 {
		s.met.vantageOverflow.Inc()
		return 1 << 63
	}
	i := len(s.vantages)
	s.vantages = append(s.vantages, name)
	s.vantageBits[name] = i
	// The active segment aliases the live table by construction.
	s.active.vantages = s.vantages
	return 1 << uint(i)
}

// sealLocked freezes the active segment, writes its file, and starts a
// fresh one. Empty segments are recycled in place.
func (s *Store) sealLocked() {
	if s.active.count == 0 {
		return
	}
	seg := s.active
	seg.vantages = append([]string(nil), s.vantages...)
	seg.path = filepath.Join(s.cfg.Dir, fmt.Sprintf("seg-%08d.vhs", seg.seq))
	seg.sealed = true
	if err := seg.writeFile(); err != nil {
		s.logf("history: sealing %s: %v", seg.path, err)
	}
	s.sealed = append(s.sealed, seg)
	s.met.sealed.Inc()
	s.active = newSegment(s.nextSeq)
	s.active.vantages = s.vantages
	s.nextSeq++
	// Records in the sealed segment can no longer merge.
	s.dedup.reset()
}

// Maintain runs one maintenance pass at the given clock: seal-by-age,
// retention, and compaction. The background loop calls it periodically;
// tests call it directly with a controlled clock.
func (s *Store) Maintain(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active.count > 0 && now.UnixNano()-s.active.minTime >= int64(s.cfg.MaxSegmentAge) {
		s.sealLocked()
	}
	if s.cfg.Retention > 0 {
		cutoff := now.Add(-s.cfg.Retention).UnixNano()
		kept := s.sealed[:0]
		for _, seg := range s.sealed {
			if seg.maxTime < cutoff {
				if err := os.Remove(seg.path); err != nil && !os.IsNotExist(err) {
					s.logf("history: retention: %v", err)
				}
				s.retired++
				s.met.retired.Inc()
				continue
			}
			kept = append(kept, seg)
		}
		s.sealed = kept
	}
	if s.cfg.CompactAfter > 0 {
		cutoff := now.Add(-s.cfg.CompactAfter).UnixNano()
		for i, seg := range s.sealed {
			if seg.compacted || seg.maxTime >= cutoff {
				continue
			}
			compacted, removed, err := compactSegment(seg)
			if err != nil {
				s.logf("history: compacting %s: %v", seg.path, err)
				continue
			}
			if err := compacted.writeFile(); err != nil {
				s.logf("history: compacting %s: %v", seg.path, err)
				continue
			}
			s.sealed[i] = compacted
			s.compacted += uint64(removed)
			s.met.compactedEvents.Add(uint64(removed))
		}
	}
}

// compactSegment collapses intra-segment churn: per (prefix, pathID,
// peer) group, only the boundary records (first and last) survive; the
// removed flap legs are summed into the survivors' dup counters so
// observation accounting stays truthful.
func compactSegment(seg *segment) (*segment, int, error) {
	records, err := seg.records()
	if err != nil {
		return nil, 0, err
	}
	type groupKey struct {
		prefix netip.Prefix
		pathID uint32
		peer   string
	}
	keep := make([]bool, len(records))
	first := make(map[groupKey]int)
	last := make(map[groupKey]int)
	for i, r := range records {
		k := groupKey{r.Prefix, r.PathID, r.Peer}
		if _, ok := first[k]; !ok {
			first[k] = i
		}
		last[k] = i
	}
	for _, i := range first {
		keep[i] = true
	}
	for _, i := range last {
		keep[i] = true
	}
	dropped := make(map[groupKey]uint32)
	removed := 0
	for i, r := range records {
		if !keep[i] {
			k := groupKey{r.Prefix, r.PathID, r.Peer}
			dropped[k] += r.Dups
			removed++
		}
	}
	out := newSegment(seg.seq)
	out.path = seg.path
	out.sealed = true
	out.compacted = true
	out.vantages = seg.vantages
	for i, r := range records {
		if !keep[i] {
			continue
		}
		k := groupKey{r.Prefix, r.PathID, r.Peer}
		if i == last[k] {
			r.Dups += dropped[k]
		}
		out.append(r)
	}
	// Retention is driven by the newest observation, which compaction
	// must not rewind.
	if seg.maxTime > out.maxTime {
		out.maxTime = seg.maxTime
	}
	return out, removed, nil
}

// Close stops the maintenance loop and seals the active segment. After
// Close the on-disk log alone reconstructs the full history.
func (s *Store) Close() error {
	s.closeOnce.Do(func() {
		close(s.stop)
		<-s.done
		s.mu.Lock()
		s.sealLocked()
		s.mu.Unlock()
	})
	return nil
}

// Stats returns a snapshot of the store's accounting.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Stored: s.stored, Deduped: s.deduped, Skipped: s.skipped,
		RetiredSegments: s.retired, CompactedEvents: s.compacted,
		Segments: len(s.sealed),
	}
	if s.active.count > 0 {
		st.Segments++
	}
	st.Records = uint64(s.active.count)
	for _, seg := range s.sealed {
		st.SealedBytes += int64(len(seg.buf))
		st.Records += uint64(seg.count)
	}
	return st
}

// Vantages returns the store's bit-ordered vantage table.
func (s *Store) Vantages() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.vantages...)
}

func (s *Store) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}
