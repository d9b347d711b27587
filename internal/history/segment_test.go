package history

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// seedRecords covers both address families, announce and withdraw, an
// absent next hop, merged vantage bitmaps, and path lists.
func seedRecords() []Record {
	return []Record{
		{
			Time: time.Unix(0, 1_000), Peer: "transit-1000", PeerASN: 1000,
			Prefix: netip.MustParsePrefix("184.164.224.0/24"), PathID: 1,
			NextHop: netip.MustParseAddr("127.65.0.1"),
			ASPath:  []uint32{1000, 3356, 10040},
			Vantage: 0b11, Dups: 2,
		},
		{
			Time: time.Unix(0, 2_000), Peer: "exp:whitehat",
			Prefix: netip.MustParsePrefix("184.164.224.0/25"), PathID: 0,
			ASPath: []uint32{61574}, Vantage: 0b10, Dups: 1,
		},
		{
			Time: time.Unix(0, 3_000), Peer: "exp:whitehat",
			Prefix: netip.MustParsePrefix("184.164.224.0/25"), PathID: 0,
			Withdraw: true, Vantage: 0b10, Dups: 1,
		},
		{
			Time: time.Unix(0, 4_000), Peer: "peer-v6", PeerASN: 64500,
			Prefix: netip.MustParsePrefix("2804:269c::/32"), PathID: 7,
			NextHop: netip.MustParseAddr("2001:db8::1"),
			ASPath:  []uint32{64500}, Vantage: 0b1, Dups: 1,
		},
	}
}

func buildSealed(t *testing.T, records []Record) *segment {
	t.Helper()
	seg := newSegment(3)
	seg.vantages = []string{"amsix", "seattle"}
	for _, r := range records {
		seg.append(r)
	}
	seg.sealed = true
	return seg
}

func TestRecordRoundTrip(t *testing.T) {
	for _, want := range seedRecords() {
		b := appendRecord(nil, want)
		d := &reader{b: b}
		got, ok := decodeRecord(d)
		if !ok {
			t.Fatalf("decode failed: %v", d.err)
		}
		if d.off != len(b) {
			t.Fatalf("decode consumed %d of %d bytes", d.off, len(b))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	seg := buildSealed(t, seedRecords())
	img := seg.encode()
	got, err := decodeSegment(img)
	if err != nil {
		t.Fatal(err)
	}
	if !got.sealed {
		t.Fatal("decoded segment not marked sealed")
	}
	if got.seq != seg.seq {
		t.Fatalf("seq = %d, want %d", got.seq, seg.seq)
	}
	if !reflect.DeepEqual(got.vantages, seg.vantages) {
		t.Fatalf("vantages = %v, want %v", got.vantages, seg.vantages)
	}
	if got.minTime != seg.minTime || got.maxTime != seg.maxTime {
		t.Fatalf("time bounds = [%d, %d], want [%d, %d]", got.minTime, got.maxTime, seg.minTime, seg.maxTime)
	}
	if !reflect.DeepEqual(got.index, seg.index) {
		t.Fatalf("index mismatch:\n got %v\nwant %v", got.index, seg.index)
	}
	gr, err := got.records()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gr, seedRecords()) {
		t.Fatalf("records mismatch:\n got %+v\nwant %+v", gr, seedRecords())
	}
}

// TestSegmentUnsealedScan exercises the recovery path: an image with no
// footer is scanned record by record and rebuilds the index.
func TestSegmentUnsealedScan(t *testing.T) {
	seg := buildSealed(t, seedRecords())
	img := seg.encode()
	// Chop the footer off: everything after the record region.
	img = img[:segHeaderLen+len(seg.buf)]
	got, err := decodeSegment(img)
	if err != nil {
		t.Fatal(err)
	}
	if got.sealed {
		t.Fatal("footerless segment decoded as sealed")
	}
	if got.count != len(seedRecords()) {
		t.Fatalf("count = %d, want %d", got.count, len(seedRecords()))
	}
	if !reflect.DeepEqual(got.index, seg.index) {
		t.Fatalf("scanned index mismatch:\n got %v\nwant %v", got.index, seg.index)
	}
}

// TestSegmentCorruptInputs drives the reader through every structured
// failure mode: each corruption must fail closed with an error naming
// the byte offset, never panic, and truncations must read as unexpected
// EOF.
func TestSegmentCorruptInputs(t *testing.T) {
	seg := buildSealed(t, seedRecords())
	good := seg.encode()
	recStart := segHeaderLen // first record's absolute offset
	mutate := func(fn func(b []byte) []byte) []byte {
		return fn(append([]byte(nil), good...))
	}

	cases := []struct {
		name    string
		data    []byte
		wantErr string // substring of the expected error ("" = any)
		wantEOF bool   // io.ErrUnexpectedEOF expected in the chain
		wantOff string // "offset N" substring expected ("" = any offset)
	}{
		{
			name:    "empty file",
			data:    nil,
			wantEOF: true,
			wantOff: "offset 0",
		},
		{
			name:    "bad segment magic",
			data:    mutate(func(b []byte) []byte { b[0] = 0xAA; return b }),
			wantErr: "bad segment magic",
			wantOff: "offset 0",
		},
		{
			name:    "unsupported version",
			data:    mutate(func(b []byte) []byte { b[4] = 99; return b }),
			wantErr: "unsupported segment version",
		},
		{
			name: "bad record magic",
			data: mutate(func(b []byte) []byte {
				b[recStart] = 0xFF
				return b[:segHeaderLen+len(seg.buf)] // force the scan path
			}),
			wantErr: "bad record magic",
			wantOff: "offset 16",
		},
		{
			name: "unknown record flags",
			data: mutate(func(b []byte) []byte {
				b[recStart+recFlagsOff] = 0x80
				return b[:segHeaderLen+len(seg.buf)]
			}),
			wantErr: "unknown record flags",
		},
		{
			name: "mid-record EOF",
			data: mutate(func(b []byte) []byte {
				return b[:recStart+recFixedLen+3] // cut inside the peer name
			}),
			wantEOF: true,
		},
		{
			name: "bad prefix family",
			data: mutate(func(b []byte) []byte {
				// First record: fixed header + peer len byte + peer.
				off := recStart + recFixedLen + 1 + len("transit-1000")
				b[off] = 9
				return b[:segHeaderLen+len(seg.buf)]
			}),
			wantErr: "bad prefix family",
		},
		{
			name: "prefix bits out of range",
			data: mutate(func(b []byte) []byte {
				off := recStart + recFixedLen + 1 + len("transit-1000")
				b[off+1] = 77
				return b[:segHeaderLen+len(seg.buf)]
			}),
			wantErr: "v4 prefix bits 77",
		},
		{
			name: "path length claims more than the region holds",
			data: mutate(func(b []byte) []byte {
				// AS-path count sits before the first record's 3 uint32
				// hops, which end at the second record's offset.
				second := segHeaderLen + int(seg.index[netip.MustParsePrefix("184.164.224.0/25")][0])
				binary.BigEndian.PutUint16(b[second-3*4-2:], 0xFFFF)
				return b[:segHeaderLen+len(seg.buf)]
			}),
			wantEOF: true,
		},
		{
			name: "corrupt record under a sealed footer (bad CRC)",
			data: mutate(func(b []byte) []byte {
				b[recStart+recTimeOff] ^= 0xFF
				return b
			}),
			wantErr: "record CRC mismatch",
		},
		{
			name: "footer length out of range",
			data: mutate(func(b []byte) []byte {
				binary.BigEndian.PutUint32(b[len(b)-8:], uint32(len(b)))
				return b
			}),
			wantErr: "bad footer length",
		},
		{
			name: "index offset beyond record region",
			data: func() []byte {
				bad := buildSealed(t, seedRecords())
				bad.index[netip.MustParsePrefix("184.164.224.0/24")][0] = uint32(len(bad.buf)) + 100
				return bad.encode()
			}(),
			wantErr: "beyond record region",
		},
		{
			// With the tail magic gone the decoder falls back to the
			// unsealed scan, which runs into footer bytes and rejects them.
			name:    "truncated sealed file (tail magic gone)",
			data:    good[:len(good)-6],
			wantErr: "",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeSegment(tc.data)
			if err == nil {
				t.Fatal("corrupt input parsed without error")
			}
			if tc.wantEOF && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("err = %v, want io.ErrUnexpectedEOF in chain", err)
			}
			if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
			if !strings.Contains(err.Error(), "offset ") {
				t.Fatalf("err = %v, want a byte offset", err)
			}
			if tc.wantOff != "" && !strings.Contains(err.Error(), tc.wantOff) {
				t.Fatalf("err = %v, want %q", err, tc.wantOff)
			}
		})
	}
}

func TestReadSegmentFile(t *testing.T) {
	dir := t.TempDir()
	seg := buildSealed(t, seedRecords())
	seg.path = filepath.Join(dir, "seg-00000003.vhs")
	if err := seg.writeFile(); err != nil {
		t.Fatal(err)
	}
	records, err := ReadSegmentFile(seg.path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(records, seedRecords()) {
		t.Fatalf("records mismatch:\n got %+v\nwant %+v", records, seedRecords())
	}

	// A flipped byte must surface as a CRC failure naming the file.
	data, err := os.ReadFile(seg.path)
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderLen+5] ^= 0x01
	bad := filepath.Join(dir, "seg-bad.vhs")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSegmentFile(bad); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("err = %v, want CRC mismatch", err)
	}
}

// TestMergeVantagePatch checks the in-place dedup patch against a
// subsequent decode.
func TestMergeVantagePatch(t *testing.T) {
	seg := newSegment(0)
	r := seedRecords()[1]
	off := seg.append(r)
	seg.mergeVantage(off, 0b100)
	got, err := seg.recordAt(off)
	if err != nil {
		t.Fatal(err)
	}
	if got.Vantage != r.Vantage|0b100 {
		t.Fatalf("vantage = %#b, want %#b", got.Vantage, r.Vantage|0b100)
	}
	if got.Dups != r.Dups+1 {
		t.Fatalf("dups = %d, want %d", got.Dups, r.Dups+1)
	}
}

// ReadSegmentFile parses one segment file, verifying the footer CRC of
// sealed segments and failing closed — with the byte offset — on any
// corruption.
func ReadSegmentFile(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	seg, err := decodeSegment(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return seg.records()
}
