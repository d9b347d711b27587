package tunnel

import (
	"bytes"
	"io"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/pipe"
)

func pair(t *testing.T, creds Credentials, name, key string) (*Tunnel, *Tunnel) {
	t.Helper()
	ca, cb := pipe.New()
	serverCh := make(chan *Tunnel, 1)
	errCh := make(chan error, 1)
	go func() {
		srv, err := Serve(ca, creds, func(name string) []byte { return []byte("cfg:" + name) })
		if err != nil {
			errCh <- err
			return
		}
		serverCh <- srv
	}()
	client, err := Dial(cb, name, key)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	select {
	case srv := <-serverCh:
		return srv, client
	case err := <-errCh:
		t.Fatalf("serve: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("handshake hung")
	}
	return nil, nil
}

func TestHandshakeSuccess(t *testing.T) {
	srv, cli := pair(t, Credentials{"exp1": "secret"}, "exp1", "secret")
	defer srv.Close()
	defer cli.Close()
	if srv.Name != "exp1" || cli.Name != "exp1" {
		t.Errorf("names: %q %q", srv.Name, cli.Name)
	}
	if string(cli.Payload) != "cfg:exp1" {
		t.Errorf("payload = %q", cli.Payload)
	}
}

func TestHandshakeWrongKey(t *testing.T) {
	ca, cb := pipe.New()
	errCh := make(chan error, 1)
	go func() {
		_, err := Serve(ca, Credentials{"exp1": "secret"}, nil)
		errCh <- err
	}()
	if _, err := Dial(cb, "exp1", "wrong"); err == nil {
		t.Fatal("client accepted with wrong key")
	}
	if err := <-errCh; err == nil {
		t.Fatal("server accepted wrong key")
	}
}

func TestHandshakeUnknownExperiment(t *testing.T) {
	ca, cb := pipe.New()
	errCh := make(chan error, 1)
	go func() {
		_, err := Serve(ca, Credentials{"exp1": "secret"}, nil)
		errCh <- err
	}()
	if _, err := Dial(cb, "ghost", "secret"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	<-errCh
}

func TestDataFrames(t *testing.T) {
	srv, cli := pair(t, Credentials{"exp1": "k"}, "exp1", "k")
	defer srv.Close()
	defer cli.Close()

	got := make(chan []byte, 1)
	srv.OnFrame(func(f []byte) { got <- append([]byte(nil), f...) })

	frame := []byte{0xde, 0xad, 0xbe, 0xef}
	if err := cli.SendFrame(frame); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-got:
		if !bytes.Equal(f, frame) {
			t.Errorf("frame %x", f)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame not delivered")
	}

	// Reverse direction.
	got2 := make(chan []byte, 1)
	cli.OnFrame(func(f []byte) { got2 <- append([]byte(nil), f...) })
	if err := srv.SendFrame([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-got2:
		if len(f) != 3 {
			t.Errorf("frame %x", f)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reverse frame not delivered")
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	srv, cli := pair(t, Credentials{"exp1": "k"}, "exp1", "k")
	defer srv.Close()
	defer cli.Close()
	if err := cli.SendFrame(make([]byte, maxFrame+1)); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestControlCarriesBGPSession(t *testing.T) {
	// The real use: a full BGP session over the tunnel's control channel
	// while data frames flow on the same carrier.
	srv, cli := pair(t, Credentials{"exp1": "k"}, "exp1", "k")
	defer srv.Close()
	defer cli.Close()

	established := make(chan struct{}, 2)
	sa := bgp.NewSession(srv.Control(), bgp.Config{
		LocalASN: 47065, RemoteASN: 61574, LocalID: netip.MustParseAddr("10.0.0.1"),
		OnEstablished: func() { established <- struct{}{} },
	})
	sb := bgp.NewSession(cli.Control(), bgp.Config{
		LocalASN: 61574, RemoteASN: 47065, LocalID: netip.MustParseAddr("10.0.0.2"),
		OnEstablished: func() { established <- struct{}{} },
	})
	go sa.Run()
	go sb.Run()
	for i := 0; i < 2; i++ {
		select {
		case <-established:
		case <-time.After(5 * time.Second):
			t.Fatal("BGP over tunnel did not establish")
		}
	}
	// Interleave data frames with control traffic.
	srv.OnFrame(func([]byte) {})
	for i := 0; i < 100; i++ {
		if err := cli.SendFrame([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	u := &bgp.Update{
		Attrs: &bgp.PathAttrs{Origin: bgp.OriginIGP, HasOrigin: true,
			ASPath:  []bgp.ASPathSegment{{Type: bgp.ASSequence, ASNs: []uint32{61574}}},
			NextHop: netip.MustParseAddr("100.65.0.1")},
		NLRI: []bgp.NLRI{{Prefix: netip.MustParsePrefix("184.164.224.0/24")}},
	}
	if err := sb.Send(u); err != nil {
		t.Fatal(err)
	}
	sa.Close()
	sb.Close()
}

func TestTunnelCloseUnblocksControl(t *testing.T) {
	srv, cli := pair(t, Credentials{"exp1": "k"}, "exp1", "k")
	ctrl := srv.Control()
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 16)
		_, err := ctrl.Read(buf)
		done <- err
	}()
	cli.Close()
	srv.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("read succeeded after close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("control read did not unblock on close")
	}
}

func TestHandshakeTruncatedCarrier(t *testing.T) {
	// The carrier dies at every stage of the handshake: both sides must
	// return errors rather than hang.
	for cut := 1; cut <= 3; cut++ {
		ca, cb := pipe.New()
		serveErr := make(chan error, 1)
		go func() {
			_, err := Serve(ca, Credentials{"exp1": "k"}, nil)
			serveErr <- err
		}()
		go func() {
			switch cut {
			case 1:
				cb.Close() // before reading the challenge
			case 2:
				buf := make([]byte, 32)
				io.ReadFull(cb, buf) // read challenge, then die
				cb.Close()
			case 3:
				buf := make([]byte, 32)
				io.ReadFull(cb, buf)
				cb.Write([]byte{4, 'e', 'x', 'p'}) // partial name
				cb.Close()
			}
		}()
		select {
		case err := <-serveErr:
			if err == nil {
				t.Errorf("cut %d: server succeeded on truncated handshake", cut)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("cut %d: server hung", cut)
		}
	}
}

func TestDialTruncatedCarrier(t *testing.T) {
	ca, cb := pipe.New()
	ca.Close() // the server is gone before sending a challenge
	if _, err := Dial(cb, "exp1", "k"); err == nil {
		t.Fatal("dial succeeded against a dead server")
	}
	// A server that sends a challenge but dies before the verdict.
	ca2, cb2 := pipe.New()
	go func() {
		ca2.Write(make([]byte, 32)) // challenge
		buf := make([]byte, 1+4+32)
		io.ReadFull(ca2, buf) // client's name+mac
		ca2.Close()           // die before the verdict byte
	}()
	if _, err := Dial(cb2, "exp1", "k"); err == nil {
		t.Fatal("dial succeeded without a verdict")
	}
}

func TestNameTooLong(t *testing.T) {
	_, cb := pipe.New()
	if _, err := Dial(cb, strings.Repeat("x", 300), "k"); err == nil {
		t.Fatal("oversized name accepted")
	}
}

// TestControlCarriesLargeBlock pushes single writes far above one mux
// frame through the control channel: a 300 KiB byte pattern, then a
// 300 KiB block of packed UPDATEs that a BGP session on the far side
// decodes. A write of exactly 65536 bytes used to be framed with length
// zero and desynchronize the stream (a dropped neighbor's withdrawals
// reach that size).
func TestControlCarriesLargeBlock(t *testing.T) {
	srv, cli := pair(t, Credentials{"exp1": "k"}, "exp1", "k")
	defer srv.Close()
	defer cli.Close()

	for _, size := range []int{1 << 16, 300 << 10} {
		pattern := make([]byte, size)
		for i := range pattern {
			pattern[i] = byte(i * 7)
		}
		werr := make(chan error, 1)
		go func() {
			_, err := srv.Control().Write(pattern)
			werr <- err
		}()
		got := make([]byte, size)
		rerr := make(chan error, 1)
		go func() {
			_, err := io.ReadFull(cli.Control(), got)
			rerr <- err
		}()
		select {
		case err := <-rerr:
			if err != nil {
				t.Fatalf("%d-byte write: read: %v", size, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d-byte write did not arrive whole", size)
		}
		if err := <-werr; err != nil {
			t.Fatalf("%d-byte write: %v", size, err)
		}
		if !bytes.Equal(got, pattern) {
			t.Fatalf("%d-byte write arrived corrupted", size)
		}
	}

	const routes = 60000 // four bytes each on the wire: a block of about 300 KiB
	established := make(chan struct{}, 2)
	received := make(chan int, 1024)
	sa := bgp.NewSession(srv.Control(), bgp.Config{
		LocalASN: 47065, RemoteASN: 61574, LocalID: netip.MustParseAddr("10.0.0.1"),
		OnEstablished: func() { established <- struct{}{} },
	})
	sb := bgp.NewSession(cli.Control(), bgp.Config{
		LocalASN: 61574, RemoteASN: 47065, LocalID: netip.MustParseAddr("10.0.0.2"),
		OnEstablished: func() { established <- struct{}{} },
		OnUpdate:      func(u *bgp.Update) { received <- len(u.Withdrawn) },
	})
	go sa.Run()
	go sb.Run()
	defer sa.Close()
	defer sb.Close()
	for i := 0; i < 2; i++ {
		select {
		case <-established:
		case <-time.After(5 * time.Second):
			t.Fatal("BGP over tunnel did not establish")
		}
	}
	block := make([]*bgp.Update, routes)
	for i := range block {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
		block[i] = &bgp.Update{Withdrawn: []bgp.NLRI{{Prefix: p}}}
	}
	before := sa.BytesOut.Load()
	if err := sa.SendBatch(block); err != nil {
		t.Fatal(err)
	}
	if sent := sa.BytesOut.Load() - before; sent < 200<<10 {
		t.Fatalf("block is only %d bytes, too small to span mux frames", sent)
	}
	for got := 0; got < routes; {
		select {
		case n := <-received:
			got += n
		case <-time.After(5 * time.Second):
			t.Fatalf("decoded %d of %d routes before the stream stalled", got, routes)
		}
	}
}

// TestInterleavedChannelsThroughReusedBuffers sends data frames of every
// size class — small, near the reusable buffers' capacity, far above it —
// interleaved with control writes, from two goroutines on one tunnel.
// Every data frame must arrive intact and in order although the receiver
// is handed the same read buffer again and again, the control stream must
// arrive whole, and a write above the buffers' capacity must not make the
// tunnel keep a buffer of that size.
func TestInterleavedChannelsThroughReusedBuffers(t *testing.T) {
	srv, cli := pair(t, Credentials{"exp1": "k"}, "exp1", "k")
	defer srv.Close()
	defer cli.Close()

	const frames = 600
	sizes := []int{60, 1514, frameBufCap - muxHeaderLen, frameBufCap, frameBufCap + 1, 9000, maxFrame}
	frame := func(i int) []byte {
		b := make([]byte, sizes[i%len(sizes)])
		for j := range b {
			b[j] = byte(i + j*13)
		}
		b[0], b[1] = byte(i>>8), byte(i)
		return b
	}
	type arrival struct {
		seq  int
		good bool
	}
	arrived := make(chan arrival, frames)
	// Each frame is checked inside the callback: its slice is the tunnel's
	// read buffer, which the next read overwrites.
	srv.OnFrame(func(f []byte) {
		seq := int(f[0])<<8 | int(f[1])
		arrived <- arrival{seq, bytes.Equal(f, frame(seq))}
	})

	control := make([]byte, 400<<10)
	for i := range control {
		control[i] = byte(i * 11)
	}
	ctlDone := make(chan error, 1)
	go func() {
		w := cli.Control()
		for off := 0; off < len(control); {
			n := min(1+off%5000, len(control)-off) // writes from a byte to ~5 KB
			if _, err := w.Write(control[off : off+n]); err != nil {
				ctlDone <- err
				return
			}
			off += n
		}
		ctlDone <- nil
	}()
	gotControl := make([]byte, len(control))
	readDone := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(srv.Control(), gotControl)
		readDone <- err
	}()
	for i := 0; i < frames; i++ {
		if err := cli.SendFrame(frame(i)); err != nil {
			t.Fatal(err)
		}
	}

	for want := 0; want < frames; want++ {
		select {
		case a := <-arrived:
			if a.seq != want || !a.good {
				t.Fatalf("data frame %d: arrived as %d, intact=%v", want, a.seq, a.good)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("data frame %d did not arrive", want)
		}
	}
	for _, ch := range []chan error{ctlDone, readDone} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("control stream stalled")
		}
	}
	if !bytes.Equal(gotControl, control) {
		t.Error("control stream arrived corrupted")
	}
	cli.writeMu.Lock()
	kept := cap(cli.wbuf)
	cli.writeMu.Unlock()
	if kept > frameBufCap {
		t.Errorf("the tunnel kept a %d-byte write buffer after an oversized frame, want at most %d", kept, frameBufCap)
	}
}
