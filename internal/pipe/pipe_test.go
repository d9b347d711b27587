package pipe

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"time"
)

func TestSimultaneousWritesDoNotDeadlock(t *testing.T) {
	// The reason this package exists: two BGP speakers both write their
	// OPEN before reading. net.Pipe would deadlock here.
	a, b := New()
	done := make(chan struct{}, 2)
	write := func(c *Conn) {
		if _, err := c.Write(make([]byte, 64*1024)); err != nil {
			t.Error(err)
		}
		done <- struct{}{}
	}
	go write(a)
	go write(b)
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("simultaneous writes deadlocked")
		}
	}
}

func TestDataIntegrityAndOrder(t *testing.T) {
	a, b := New()
	var sent bytes.Buffer
	go func() {
		for i := 0; i < 100; i++ {
			chunk := bytes.Repeat([]byte{byte(i)}, i+1)
			sent.Write(chunk)
			a.Write(chunk)
		}
		a.Close()
	}()
	got, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, sent.Bytes()) {
		t.Fatalf("stream corrupted: %d bytes vs %d", len(got), sent.Len())
	}
}

func TestCloseDrainsBufferedDataThenEOF(t *testing.T) {
	a, b := New()
	a.Write([]byte("tail"))
	a.Close()
	got, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "tail" {
		t.Errorf("got %q", got)
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	a, _ := New()
	a.Close()
	if _, err := a.Write([]byte("x")); err == nil {
		t.Error("write after close succeeded")
	}
}

func TestCloseUnblocksPendingRead(t *testing.T) {
	a, b := New()
	errCh := make(chan error, 1)
	go func() {
		buf := make([]byte, 8)
		_, err := b.Read(buf)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case err := <-errCh:
		if err != io.EOF {
			t.Errorf("err = %v, want EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read did not unblock")
	}
}

func TestConcurrentWritersInterleaveSafely(t *testing.T) {
	a, b := New()
	const writers, per = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			msg := bytes.Repeat([]byte{byte(w)}, 10)
			for i := 0; i < per; i++ {
				a.Write(msg)
			}
		}(w)
	}
	go func() {
		wg.Wait()
		a.Close()
	}()
	got, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != writers*per*10 {
		t.Errorf("read %d bytes, want %d", len(got), writers*per*10)
	}
}

func TestAddrsAndDeadlinesPresent(t *testing.T) {
	a, _ := New()
	if a.LocalAddr().Network() != "pipe" || a.RemoteAddr().String() == "" {
		t.Error("addr methods")
	}
	if err := a.SetDeadline(time.Now()); err != nil {
		t.Error(err)
	}
	if err := a.SetReadDeadline(time.Now()); err != nil {
		t.Error(err)
	}
	if err := a.SetWriteDeadline(time.Now()); err != nil {
		t.Error(err)
	}
}

func TestSteadyWriteReadReusesArray(t *testing.T) {
	b := NewBuffer()
	msg, out := make([]byte, 300), make([]byte, 200)
	step := func() { // two reads drain each write
		b.Write(msg)
		b.Read(out)
		b.Read(out)
	}
	step()
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("steady write/read allocates %.1f per round, want 0", allocs)
	}
}

func TestOrderSurvivesCompaction(t *testing.T) {
	b := NewBuffer()
	var want, got []byte
	next := byte(0)
	write := func(n int) {
		chunk := make([]byte, n)
		for i := range chunk {
			chunk[i] = next
			next++
		}
		want = append(want, chunk...)
		b.Write(chunk)
	}
	read := func(n int) {
		buf := make([]byte, n)
		m, err := b.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:m]...)
	}
	write(64)
	compactions := 0
	for round := 0; round < 200; round++ {
		read(40) // leave a read prefix longer than the unread rest
		c, off := cap(b.data), b.off
		write(24 + round%16)
		if off > 0 && b.off == 0 && cap(b.data) == c {
			compactions++
		}
	}
	for b.off < len(b.data) {
		read(64)
	}
	if compactions == 0 {
		t.Fatal("no write compacted the buffer in place")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("byte order broken across %d compactions", compactions)
	}
}
