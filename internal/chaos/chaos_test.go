package chaos

import (
	"io"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pipe"
	"repro/internal/telemetry"
)

func TestResetKillsBothEnds(t *testing.T) {
	in := New(Config{Seed: 1})
	a, b := pipe.New()
	wrapped := in.WrapConn("neighbor", "as100", "amsix", a)

	if n := in.Inject(Fault{Kind: Reset, Class: "neighbor"}); n != 1 {
		t.Fatalf("Inject hit %d targets, want 1", n)
	}
	if _, err := wrapped.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("wrapped read after reset: err=%v, want EOF", err)
	}
	if _, err := b.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("peer read after reset: err=%v, want EOF", err)
	}
	ev := in.Events()
	if len(ev) != 1 || ev[0].Fault.Kind != Reset || len(ev[0].Targets) != 1 {
		t.Fatalf("events = %+v", ev)
	}
	if ev[0].Targets[0] != "neighbor/as100" {
		t.Fatalf("target = %q", ev[0].Targets[0])
	}
}

func TestSelectorsFilterTargets(t *testing.T) {
	in := New(Config{Seed: 1})
	a1, _ := pipe.New()
	a2, _ := pipe.New()
	a3, _ := pipe.New()
	in.WrapConn("neighbor", "as100", "amsix", a1)
	in.WrapConn("neighbor", "as200", "six", a2)
	in.WrapConn("tunnel", "exp1", "amsix", a3)

	if n := in.Inject(Fault{Kind: Reset, Class: "neighbor", PoP: "amsix"}); n != 1 {
		t.Fatalf("class+pop selector hit %d, want 1", n)
	}
	if n := in.Inject(Fault{Kind: Reset, Name: "exp1"}); n != 1 {
		t.Fatalf("name selector hit %d, want 1", n)
	}
	// The two reset conns are pruned; only as200 remains.
	if n := in.Inject(Fault{Kind: Reset}); n != 1 {
		t.Fatalf("wildcard after prune hit %d, want 1", n)
	}
}

func TestStallReadBlocks(t *testing.T) {
	in := New(Config{Seed: 1})
	a, b := pipe.New()
	wrapped := in.WrapConn("neighbor", "as100", "amsix", a)
	if _, err := b.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}

	const stall = 60 * time.Millisecond
	in.Inject(Fault{Kind: StallRead, Duration: stall})
	start := time.Now()
	if _, err := wrapped.Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got < stall/2 {
		t.Fatalf("read returned after %v, want >= %v", got, stall/2)
	}
}

func TestCorruptFlipsByte(t *testing.T) {
	in := New(Config{Seed: 1})
	a, b := pipe.New()
	wrapped := in.WrapConn("neighbor", "as100", "amsix", a)
	in.Inject(Fault{Kind: Corrupt})
	if _, err := b.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	n, err := io.ReadFull(wrapped, buf)
	if err != nil || n != 3 {
		t.Fatalf("read %d, %v", n, err)
	}
	if buf[0] == 1 && buf[1] == 2 && buf[2] == 3 {
		t.Fatalf("payload %v survived corruption intact", buf)
	}
}

func TestLinkFlapCallsDownThenUp(t *testing.T) {
	in := New(Config{Seed: 1})
	var downs, ups atomic.Int32
	in.RegisterLink("bb0", "amsix", func() { downs.Add(1) }, func() { ups.Add(1) })

	if n := in.Inject(Fault{Kind: LinkFlap, PoP: "amsix", Duration: 10 * time.Millisecond}); n != 1 {
		t.Fatalf("flap hit %d, want 1", n)
	}
	if downs.Load() != 1 {
		t.Fatalf("down called %d times", downs.Load())
	}
	deadline := time.Now().Add(time.Second)
	for ups.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("up never called")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPartitionHitsWholePoP(t *testing.T) {
	in := New(Config{Seed: 1})
	a1, _ := pipe.New()
	a2, _ := pipe.New()
	w1 := in.WrapConn("neighbor", "as100", "amsix", a1)
	in.WrapConn("backbone", "six", "six", a2)
	var downs atomic.Int32
	in.RegisterLink("bb0", "amsix", func() { downs.Add(1) }, func() {})
	in.RegisterLink("bb0", "six", func() { t.Error("six link flapped") }, func() {})

	if n := in.Inject(Fault{Kind: Partition, PoP: "amsix", Duration: time.Millisecond}); n != 2 {
		t.Fatalf("partition hit %d targets, want 2 (conn + link)", n)
	}
	if _, err := w1.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("amsix conn not reset: %v", err)
	}
	if downs.Load() != 1 {
		t.Fatalf("amsix link down called %d times", downs.Load())
	}
}

func TestSeededScheduleIsDeterministic(t *testing.T) {
	draw := func(seed int64) []string {
		in := New(Config{Seed: seed})
		for i, name := range []string{"as100", "as200", "as300"} {
			c, _ := pipe.New()
			pop := []string{"amsix", "six"}[i%2]
			in.WrapConn("neighbor", name, pop, c)
		}
		in.RegisterLink("bb0", "amsix", func() {}, func() {})
		var seq []string
		for i := 0; i < 32; i++ {
			f, ok := in.randomFault()
			if !ok {
				t.Fatal("no fault drawn")
			}
			if f.Kind != Reset { // keep targets alive across draws
				in.Inject(f)
			}
			seq = append(seq, string(f.Kind)+":"+f.Name+":"+f.PoP)
		}
		return seq
	}
	one, two := draw(42), draw(42)
	for i := range one {
		if one[i] != two[i] {
			t.Fatalf("draw %d diverged: %q vs %q", i, one[i], two[i])
		}
	}
	other := draw(43)
	same := true
	for i := range one {
		if one[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestScriptedRunFiresInOrder(t *testing.T) {
	in := New(Config{
		Seed: 7,
		Script: []Fault{
			{After: 20 * time.Millisecond, Kind: Corrupt, Name: "as100"},
			{After: 5 * time.Millisecond, Kind: StallRead, Name: "as100", Duration: time.Millisecond},
		},
	})
	c, _ := pipe.New()
	in.WrapConn("neighbor", "as100", "amsix", c)
	go in.Run()
	select {
	case <-in.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("scripted run did not finish")
	}
	ev := in.Events()
	if len(ev) != 2 {
		t.Fatalf("got %d events, want 2", len(ev))
	}
	if ev[0].Fault.Kind != StallRead || ev[1].Fault.Kind != Corrupt {
		t.Fatalf("script fired out of order: %v then %v", ev[0].Fault.Kind, ev[1].Fault.Kind)
	}
}

func TestRandomRunInjectsAtRate(t *testing.T) {
	in := New(Config{Seed: 3, Rate: 60 * 1000, Kinds: []FaultKind{Corrupt}})
	c, _ := pipe.New()
	in.WrapConn("neighbor", "as100", "amsix", c)
	go in.Run()
	deadline := time.Now().Add(2 * time.Second)
	for len(in.Events()) < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	in.Stop()
	<-in.Done()
	if got := len(in.Events()); got < 3 {
		t.Fatalf("random run injected %d faults in 2s at 1000/s", got)
	}
}

func TestTelemetryCountsFaults(t *testing.T) {
	reg := telemetry.Default()
	before := reg.Value("chaos_faults_total")
	in := New(Config{Seed: 1})
	c, _ := pipe.New()
	in.WrapConn("neighbor", "as100", "amsix", c)
	in.Inject(Fault{Kind: Reset})
	if got := reg.Value("chaos_faults_total"); got < before+1 {
		t.Fatalf("chaos_faults_total = %v, want >= %v", got, before+1)
	}
}

func TestNilInjectorIsTransparent(t *testing.T) {
	var in *Injector
	a, b := pipe.New()
	c := in.WrapConn("neighbor", "as100", "amsix", a)
	if c != a {
		t.Fatal("nil injector wrapped the conn")
	}
	in.RegisterLink("bb0", "amsix", func() {}, func() {})
	if _, err := b.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
}

// Events returns a copy of the injection log.
func (in *Injector) Events() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.events...)
}
