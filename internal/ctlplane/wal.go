package ctlplane

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/history"
)

// Durable desired-state layer: a write-ahead log plus snapshot making
// peeringd crash-only. Every Store commit (create / CAS-update /
// tombstone / remove), every deploy operation, and every successful
// actuation fingerprint is appended to the WAL and fsynced before the
// commit is acknowledged; on startup the snapshot and WAL replay
// rebuild desired state exactly — per-object revisions, the retained
// revision log, the deployed map, and the fingerprints announcements
// were actuated with (so recovery re-adopts matching installs without
// burning the §4.7 update budget).
//
// The on-disk discipline mirrors internal/history's segment log:
// length-prefixed CRC-32C records, fsync-on-commit, snapshot-then-
// truncate compaction, and fail-closed rejection of corruption with
// the byte offset. The one deliberate exception is the final record: a
// crash mid-append leaves a torn tail (short frame or bad checksum
// extending to EOF), which is expected damage — it is truncated away
// and recovery proceeds from the last durable record. A bad checksum
// or sequence gap anywhere *before* the tail is real corruption and
// recovery refuses to proceed.

// walCastagnoli is the CRC-32C polynomial every frame is checked with
// (same discipline as internal/history).
var walCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// walMagic / snapMagic head the two files in a state directory. Format
// 2 numbers deploy revisions by the store's own revision counter; a
// format-1 directory (whose deployed map is numbered by the mirrored
// config store that no longer exists) is refused as bad magic rather
// than replayed under the wrong numbering.
var (
	walMagic  = []byte("vbgpwal2")
	snapMagic = []byte("vbgpsnp2")
)

// File names inside the state directory.
const (
	walFileName  = "ctlplane.wal"
	snapFileName = "ctlplane.snap"
)

// maxWALRecord bounds one frame's payload; anything larger mid-file is
// corruption, not data (the largest record is a commit carrying one
// object, and a spec is capped at 1 MiB).
const maxWALRecord = 8 << 20

// defaultCompactEvery is how many appended records trigger an automatic
// snapshot-then-truncate compaction.
const defaultCompactEvery = 1024

// Record types.
const (
	walTypeCommit byte = 1
	walTypeDeploy byte = 2
	walTypeAct    byte = 3
)

// walCommit is the durable form of one Store commit: the delta. Created,
// updated and deleted commits carry the object as committed; removed
// commits carry only the name.
type walCommit struct {
	Kind     ChangeKind `json:"kind"`
	Name     string     `json:"name"`
	Revision int64      `json:"revision"`
	Object   *Object    `json:"object,omitempty"`
}

// walDeploy is one deploy-plane operation: PoPs are the PoPs a canary or
// promote reached — all it was aimed at, or those before the one that
// failed — which replay moves to Revision without re-applying;
// NewRevision is the revision a rollback of Revision appended.
type walDeploy struct {
	Verb        string   `json:"verb"`
	Revision    int64    `json:"revision"`
	PoPs        []string `json:"pops,omitempty"`
	NewRevision int64    `json:"new_revision,omitempty"`
}

// walAct is one successful actuation: the fingerprint an announcement
// was installed with (op "announce") or its retraction (op "withdraw").
// Recovery hands these to the actuator so matching installs are
// re-adopted with exact knob knowledge instead of re-announced.
type walAct struct {
	Op  string `json:"op"` // "announce" | "withdraw"
	Key AnnKey `json:"key"`
	Fp  string `json:"fp,omitempty"`
}

// walSnapshot is the compaction checkpoint: objects, the retained
// revision log (Window, with the experiment set it folds over in
// Settled), deploy and actuation state as of sequence Seq. WAL records
// with seq <= Seq are superseded.
type walSnapshot struct {
	Seq      uint64           `json:"seq"`
	NextRev  int64            `json:"next_rev"`
	Objects  []Object         `json:"objects,omitempty"`
	Settled  []Object         `json:"settled,omitempty"`
	Window   []revision       `json:"window,omitempty"`
	Deployed map[string]int64 `json:"deployed,omitempty"`
	Acts     []walAct         `json:"acts,omitempty"`
}

// RecoveredState summarises what RecoverStore rebuilt from snapshot +
// replay.
type RecoveredState struct {
	// Seq is the last replayed WAL sequence number.
	Seq uint64
	// NextRev is the store's global revision counter.
	NextRev int64
	// Objects are the surviving desired objects (tombstones included),
	// sorted by name.
	Objects []Object
	// Deployed is the per-PoP deployed-revision map.
	Deployed map[string]int64
	// Acts maps each announcement believed installed to the fingerprint
	// it was actuated with — the recovery reconciliation pass re-adopts
	// matching installs instead of re-announcing them.
	Acts map[AnnKey]string
}

// WAL is the append side of the log: one open file, fsynced per record.
type WAL struct {
	mu       sync.Mutex
	dir      string
	f        *os.File
	seq      uint64
	appended int // records since the last snapshot

	// CompactEvery is how many appends trigger auto-compaction
	// (default 1024; set before use).
	CompactEvery int
	// snapshot builds the compaction checkpoint; installed by the Store
	// that owns this WAL. Called with the store lock held.
	snapshot func() walSnapshot

	mAppends  metric
	mCompacts metric
}

// encodeFrame wraps a payload as one length-prefixed CRC'd frame.
func encodeFrame(payload []byte) []byte {
	out := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(out[4:8], crc32.Checksum(payload, walCastagnoli))
	copy(out[8:], payload)
	return out
}

// encodeRecord builds a frame payload: sequence, type tag, JSON body.
func encodeRecord(seq uint64, typ byte, body any) ([]byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, 9+len(data))
	binary.BigEndian.PutUint64(payload[0:8], seq)
	payload[8] = typ
	copy(payload[9:], data)
	return payload, nil
}

// walRecord is one decoded record; body is a *walCommit, *walDeploy or
// *walAct according to typ.
type walRecord struct {
	seq  uint64
	typ  byte
	body any
}

// decodeStrict parses exactly one JSON value into v: unknown fields and
// anything after the value are errors, so a record written by a
// different format never half-decodes.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data")
	}
	return nil
}

// DecodeWALRecord parses one frame payload (the bytes after the
// length+CRC header): sequence, type tag, and a strictly-decoded JSON
// body. It is the unit the fuzz target drives.
func DecodeWALRecord(payload []byte) (walRecord, error) {
	var rec walRecord
	if len(payload) < 9 {
		return rec, fmt.Errorf("ctlplane: wal record too short (%d bytes)", len(payload))
	}
	rec.seq = binary.BigEndian.Uint64(payload[0:8])
	rec.typ = payload[8]
	body := payload[9:]
	switch rec.typ {
	case walTypeCommit:
		var c walCommit
		if err := decodeStrict(body, &c); err != nil {
			return rec, fmt.Errorf("ctlplane: bad commit record: %v", err)
		}
		switch c.Kind {
		case ChangeCreated, ChangeUpdated, ChangeDeleted, ChangeRemoved:
		default:
			return rec, fmt.Errorf("ctlplane: commit record has unknown kind %q", c.Kind)
		}
		if c.Name == "" {
			return rec, fmt.Errorf("ctlplane: commit record has no name")
		}
		if c.Revision <= 0 {
			return rec, fmt.Errorf("ctlplane: commit record has revision %d", c.Revision)
		}
		if (c.Object == nil) != (c.Kind == ChangeRemoved) {
			return rec, fmt.Errorf("ctlplane: %s commit record with object=%v", c.Kind, c.Object != nil)
		}
		if c.Object != nil {
			if c.Object.Spec.Name != c.Name {
				return rec, fmt.Errorf("ctlplane: commit record for %s carries object %s", c.Name, c.Object.Spec.Name)
			}
			if err := c.Object.compile(); err != nil {
				return rec, err
			}
		}
		rec.body = &c
	case walTypeDeploy:
		var d walDeploy
		if err := decodeStrict(body, &d); err != nil {
			return rec, fmt.Errorf("ctlplane: bad deploy record: %v", err)
		}
		switch d.Verb {
		case "canary", "promote":
		case "rollback":
			if d.NewRevision <= 0 {
				return rec, fmt.Errorf("ctlplane: rollback record has new revision %d", d.NewRevision)
			}
		default:
			return rec, fmt.Errorf("ctlplane: deploy record has unknown verb %q", d.Verb)
		}
		rec.body = &d
	case walTypeAct:
		var a walAct
		if err := decodeStrict(body, &a); err != nil {
			return rec, fmt.Errorf("ctlplane: bad act record: %v", err)
		}
		if a.Op != "announce" && a.Op != "withdraw" {
			return rec, fmt.Errorf("ctlplane: act record has unknown op %q", a.Op)
		}
		if !a.Key.Prefix.IsValid() {
			return rec, fmt.Errorf("ctlplane: act record for %s has no prefix", a.Key.Experiment)
		}
		rec.body = &a
	default:
		return rec, fmt.Errorf("ctlplane: unknown wal record type %d", rec.typ)
	}
	return rec, nil
}

// walCorruptionError marks unrecoverable log damage: recovery fails
// closed rather than silently dropping committed state.
type walCorruptionError struct {
	file   string
	offset int64
	msg    string
}

func (e *walCorruptionError) Error() string {
	return fmt.Sprintf("ctlplane: %s: offset %d: %s (refusing to recover from a corrupt log)", e.file, e.offset, e.msg)
}

// decodeWALFile reads every intact frame of a WAL file. A torn tail —
// an incomplete final frame, or a checksum failure on a frame that
// extends to EOF — is expected crash damage: decoding stops and the
// returned truncateAt offset marks where the durable prefix ends.
// Damage anywhere else fails closed with the byte offset.
func decodeWALFile(name string, data []byte) (recs []walRecord, truncateAt int64, err error) {
	if len(data) < len(walMagic) {
		if len(data) == 0 {
			return nil, 0, nil
		}
		return nil, 0, &walCorruptionError{name, 0, "short header"}
	}
	if string(data[:len(walMagic)]) != string(walMagic) {
		return nil, 0, &walCorruptionError{name, 0, fmt.Sprintf("bad magic %q", data[:len(walMagic)])}
	}
	off := int64(len(walMagic))
	var lastSeq uint64
	for int(off) < len(data) {
		rest := data[off:]
		if len(rest) < 8 {
			return recs, off, nil // torn frame header at the tail
		}
		length := binary.BigEndian.Uint32(rest[0:4])
		wantCRC := binary.BigEndian.Uint32(rest[4:8])
		end := int(off) + 8 + int(length)
		if length > maxWALRecord {
			if end >= len(data) {
				return recs, off, nil // garbage length from a torn write
			}
			return nil, 0, &walCorruptionError{name, off, fmt.Sprintf("record length %d exceeds %d", length, maxWALRecord)}
		}
		if end > len(data) {
			return recs, off, nil // torn payload at the tail
		}
		payload := rest[8 : 8+length]
		if crc32.Checksum(payload, walCastagnoli) != wantCRC {
			if end == len(data) {
				return recs, off, nil // torn final frame
			}
			return nil, 0, &walCorruptionError{name, off, "checksum mismatch"}
		}
		rec, derr := DecodeWALRecord(payload)
		if derr != nil {
			return nil, 0, &walCorruptionError{name, off, derr.Error()}
		}
		if len(recs) > 0 && rec.seq != lastSeq+1 {
			return nil, 0, &walCorruptionError{name, off, fmt.Sprintf("sequence %d after %d", rec.seq, lastSeq)}
		}
		lastSeq = rec.seq
		recs = append(recs, rec)
		off = int64(end)
	}
	return recs, -1, nil // clean to EOF
}

// loadSnapshot reads and verifies the snapshot file; a missing file is
// a fresh start, any damage is fail-closed (snapshots are written
// atomically, so a bad one is corruption, not a crash artifact).
func loadSnapshot(path string) (*walSnapshot, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	name := filepath.Base(path)
	if len(data) < len(snapMagic)+8 {
		return nil, &walCorruptionError{name, 0, "short snapshot"}
	}
	if string(data[:len(snapMagic)]) != string(snapMagic) {
		return nil, &walCorruptionError{name, 0, fmt.Sprintf("bad magic %q", data[:len(snapMagic)])}
	}
	body := data[len(snapMagic):]
	length := binary.BigEndian.Uint32(body[0:4])
	wantCRC := binary.BigEndian.Uint32(body[4:8])
	if int(length) != len(body)-8 {
		return nil, &walCorruptionError{name, int64(len(snapMagic)), fmt.Sprintf("length %d does not match %d payload bytes", length, len(body)-8)}
	}
	payload := body[8:]
	if crc32.Checksum(payload, walCastagnoli) != wantCRC {
		return nil, &walCorruptionError{name, int64(len(snapMagic)), "checksum mismatch"}
	}
	var snap walSnapshot
	if err := decodeStrict(payload, &snap); err != nil {
		return nil, &walCorruptionError{name, int64(len(snapMagic) + 8), fmt.Sprintf("bad snapshot body: %v", err)}
	}
	return &snap, nil
}

// openWAL opens (creating if needed) the durable desired-state log in
// dir and returns it with the verified snapshot (nil when there is
// none) and the intact records for the store to replay. A torn tail is
// truncated; anything else wrong with the files fails closed.
func openWAL(dir string) (*WAL, *walSnapshot, []walRecord, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, fmt.Errorf("ctlplane: state dir: %w", err)
	}
	snap, err := loadSnapshot(filepath.Join(dir, snapFileName))
	if err != nil {
		return nil, nil, nil, err
	}
	walPath := filepath.Join(dir, walFileName)
	data, err := os.ReadFile(walPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil, err
	}
	recs, truncateAt, err := decodeWALFile(walFileName, data)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(data) == 0 {
		// Create the log with its magic, file and directory entry
		// fsynced, before the first commit is appended to it.
		if err := history.WriteFileAtomic(walPath, walMagic); err != nil {
			return nil, nil, nil, err
		}
		truncateAt = -1
	}

	f, err := os.OpenFile(walPath, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, nil, err
	}
	switch {
	case truncateAt >= 0:
		// Drop the torn tail so the next append starts on a frame
		// boundary.
		if err = f.Truncate(truncateAt); err == nil {
			if _, err = f.Seek(truncateAt, io.SeekStart); err == nil {
				err = f.Sync()
			}
		}
	default:
		_, err = f.Seek(0, io.SeekEnd)
	}
	if err != nil {
		f.Close()
		return nil, nil, nil, err
	}
	return &WAL{
		dir:          dir,
		f:            f,
		appended:     len(recs),
		CompactEvery: defaultCompactEvery,
		mAppends:     counter("ctlplane_wal_appends_total"),
		mCompacts:    counter("ctlplane_wal_compactions_total"),
	}, snap, recs, nil
}

// replay rebuilds a fresh store from the snapshot baseline and the WAL
// records after it, applying each record through the same functions
// the live path uses, and returns the last sequence number replayed.
// The revision log is numbered by position, so a record whose revision
// is not the next one is refused.
func (s *Store) replay(snap *walSnapshot, recs []walRecord) (seq uint64, err error) {
	if snap != nil {
		seq = snap.Seq
		s.nextRev = snap.NextRev
		if len(snap.Window) > revisionWindow || int64(len(snap.Window)) > snap.NextRev {
			return 0, fmt.Errorf("ctlplane: %s: %d retained revisions at revision %d", snapFileName, len(snap.Window), snap.NextRev)
		}
		s.window = snap.Window
		var bad error
		index := func(obj *Object, into map[string]*Object) {
			if err := obj.compile(); err != nil && bad == nil {
				bad = fmt.Errorf("ctlplane: %s: %v", snapFileName, err)
			}
			if into != nil {
				into[obj.Spec.Name] = obj
			}
		}
		for i := range snap.Objects {
			index(&snap.Objects[i], s.objects)
		}
		for i := range snap.Settled {
			index(&snap.Settled[i], s.settled)
		}
		for _, r := range snap.Window {
			if r.Object != nil {
				index(r.Object, nil)
			}
		}
		if bad != nil {
			return 0, bad
		}
		for pop, rev := range snap.Deployed {
			s.deployed[pop] = rev
		}
		for _, a := range snap.Acts {
			s.acts[a.Key] = a.Fp
		}
	}
	for _, r := range recs {
		if r.seq <= seq {
			// Superseded by the snapshot (a crash between snapshot write
			// and WAL truncate leaves the old records behind).
			continue
		}
		seq = r.seq
		switch b := r.body.(type) {
		case *walCommit:
			if err := s.nextRevisionIs(b.Revision); err != nil {
				return 0, fmt.Errorf("ctlplane: wal seq %d: %v", r.seq, err)
			}
			s.applyCommitLocked(*b)
		case *walDeploy:
			if b.Verb == "rollback" {
				if err := s.nextRevisionIs(b.NewRevision); err != nil {
					return 0, fmt.Errorf("ctlplane: wal seq %d: %v", r.seq, err)
				}
			}
			if err := s.applyDeployLocked(*b); err != nil {
				return 0, fmt.Errorf("ctlplane: wal seq %d: %v", r.seq, err)
			}
		case *walAct:
			s.applyActLocked(*b)
		}
	}
	return seq, nil
}

// nextRevisionIs checks a replayed record's revision number.
func (s *Store) nextRevisionIs(rev int64) error {
	switch {
	case rev <= s.nextRev:
		return fmt.Errorf("duplicate revision %d (store already at %d)", rev, s.nextRev)
	case rev != s.nextRev+1:
		return fmt.Errorf("revision %d does not follow %d", rev, s.nextRev)
	}
	return nil
}

// append writes one record and fsyncs it — the durability point every
// commit waits on.
func (w *WAL) append(typ byte, body any) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return fmt.Errorf("ctlplane: wal is closed")
	}
	payload, err := encodeRecord(w.seq+1, typ, body)
	if err != nil {
		return err
	}
	if _, err := w.f.Write(encodeFrame(payload)); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.seq++
	w.appended++
	w.mAppends.Inc()
	return nil
}

// compactIfDue, once CompactEvery records have been appended,
// checkpoints the current state into the snapshot file (written
// atomically: temp file + rename) and truncates the WAL — the
// snapshot-then-truncate discipline. The caller holds the owning
// store's lock (the snapshot hook reads store state directly).
func (w *WAL) compactIfDue() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	every := w.CompactEvery
	if every <= 0 {
		every = defaultCompactEvery
	}
	if w.appended < every || w.f == nil || w.snapshot == nil {
		return nil
	}
	snap := w.snapshot()
	snap.Seq = w.seq
	payload, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	data := append(append([]byte(nil), snapMagic...), encodeFrame(payload)...)
	if err := history.WriteFileAtomic(filepath.Join(w.dir, snapFileName), data); err != nil {
		return err
	}
	// The snapshot file and its directory entry are fsynced, so the
	// WAL's records are superseded. A crash before the truncate is
	// harmless — replay skips seq <= snapshot.
	if err := w.f.Truncate(int64(len(walMagic))); err != nil {
		return err
	}
	if _, err := w.f.Seek(int64(len(walMagic)), 0); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.appended = 0
	w.mCompacts.Inc()
	return nil
}

// Close closes the log file. Outstanding records are already fsynced.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
