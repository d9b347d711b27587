package ethernet

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestParseMACRoundTrip(t *testing.T) {
	cases := []string{
		"00:00:00:00:00:00",
		"ff:ff:ff:ff:ff:ff",
		"02:00:5e:10:00:01",
		"aa:bb:cc:dd:ee:ff",
	}
	for _, s := range cases {
		m, err := ParseMAC(s)
		if err != nil {
			t.Fatalf("ParseMAC(%q): %v", s, err)
		}
		if got := m.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestParseMACUppercase(t *testing.T) {
	m, err := ParseMAC("AA:BB:CC:DD:EE:FF")
	if err != nil {
		t.Fatal(err)
	}
	if m != (MAC{0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff}) {
		t.Errorf("got %v", m)
	}
}

func TestParseMACErrors(t *testing.T) {
	bad := []string{
		"",
		"00:00:00:00:00",      // too short
		"00:00:00:00:00:0",    // too short
		"00:00:00:00:00:00:0", // too long
		"00-00-00-00-00-00",   // wrong separator
		"0g:00:00:00:00:00",   // bad hex
		"zz:zz:zz:zz:zz:zz",
	}
	for _, s := range bad {
		if _, err := ParseMAC(s); err == nil {
			t.Errorf("ParseMAC(%q): want error", s)
		}
	}
}

func TestMACStringParseProperty(t *testing.T) {
	f := func(m MAC) bool {
		parsed, err := ParseMAC(m.String())
		return err == nil && parsed == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMACPredicates(t *testing.T) {
	if !Broadcast.IsMulticast() {
		t.Error("broadcast predicates")
	}
	if !Zero.IsZero() {
		t.Error("zero predicate")
	}
	u := MAC{0x02, 0, 0, 0, 0, 1}
	if u == Broadcast || u.IsMulticast() || u.IsZero() {
		t.Errorf("%v misclassified", u)
	}
	mc := MAC{0x01, 0x00, 0x5e, 0, 0, 1}
	if !mc.IsMulticast() || mc == Broadcast {
		t.Errorf("%v misclassified", mc)
	}
}

func TestMustParseMACPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseMAC on bad input did not panic")
		}
	}()
	MustParseMAC("not a mac")
}

// ParseMAC parses a colon-separated MAC address string.
func ParseMAC(s string) (MAC, error) {
	var m MAC
	if len(s) != 17 {
		return m, fmt.Errorf("ethernet: invalid MAC %q: want 17 chars, have %d", s, len(s))
	}
	for i := 0; i < 6; i++ {
		hi, ok1 := unhex(s[i*3])
		lo, ok2 := unhex(s[i*3+1])
		if !ok1 || !ok2 {
			return MAC{}, fmt.Errorf("ethernet: invalid MAC %q: bad hex at octet %d", s, i)
		}
		m[i] = hi<<4 | lo
		if i < 5 && s[i*3+2] != ':' {
			return MAC{}, fmt.Errorf("ethernet: invalid MAC %q: want ':' separator", s)
		}
	}
	return m, nil
}

// MustParseMAC is like ParseMAC but panics on error.
func MustParseMAC(s string) MAC {
	m, err := ParseMAC(s)
	if err != nil {
		panic(err)
	}
	return m
}

func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}
