package main

import (
	"flag"
	"fmt"
	"net/netip"
	"net/url"
	"os"
	"strings"
	"time"

	"repro/internal/history"
)

// runHistoryCommand implements `peering-cli history <verb> [flags]`,
// querying the /v1/history/* endpoints of a running `peeringd -history
// -metrics` instance.
func runHistoryCommand(args []string) error {
	usage := `usage: peering-cli history <verb> [flags]

verbs:
  state    routes alive for a prefix at an instant   (-prefix, -at)
  between  a prefix's stored events in a time range  (-prefix, -from, -to)
  diff     routes visible at exactly one of two PoPs (-a, -b, -at)
  stats    store accounting and the vantage table

flags:
  -addr host:port   peeringd metrics address (default localhost:9179)
  -prefix P         exact prefix to query, e.g. 184.164.224.0/24
  -at T             instant, RFC 3339 (default now)
  -from T, -to T    range bounds, RFC 3339 (default all .. now)
  -a POP, -b POP    the two PoPs to diff`
	if len(args) == 0 {
		return fmt.Errorf("%s", usage)
	}
	verb := args[0]
	fs := flag.NewFlagSet("history", flag.ExitOnError)
	addr := fs.String("addr", "localhost:9179", "peeringd metrics address")
	prefix := fs.String("prefix", "", "prefix to query")
	at := fs.String("at", "", "instant (RFC 3339)")
	from := fs.String("from", "", "range start (RFC 3339)")
	to := fs.String("to", "", "range end (RFC 3339)")
	popA := fs.String("a", "", "first PoP to diff")
	popB := fs.String("b", "", "second PoP to diff")
	fs.Usage = func() { fmt.Fprintln(os.Stderr, usage) }
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}

	q := url.Values{}
	set := func(key, val string) {
		if val != "" {
			q.Set(key, val)
		}
	}
	switch verb {
	case "state":
		set("prefix", *prefix)
		set("at", *at)
	case "between":
		set("prefix", *prefix)
		set("from", *from)
		set("to", *to)
	case "diff":
		set("a", *popA)
		set("b", *popB)
		set("at", *at)
	case "stats":
	default:
		return fmt.Errorf("unknown history verb %q\n%s", verb, usage)
	}

	return apiGet(*addr, "/v1/history/"+verb, q)
}

// executeHistory implements the REPL's history verb against the local
// platform's store.
//
//	history stats
//	history state <prefix> [<rfc3339>]
//	history between <prefix> [<from> [<to>]]
//	history diff <popA> <popB> [<rfc3339>]
func executeHistory(store *history.Store, f []string) string {
	if store == nil {
		return "history store not running"
	}
	usage := "usage: history stats | state <prefix> [at] | between <prefix> [from [to]] | diff <popA> <popB> [at]"
	if len(f) < 2 {
		return usage
	}
	parseAt := func(s string, fallback time.Time) (time.Time, error) {
		if s == "" {
			return fallback, nil
		}
		return time.Parse(time.RFC3339Nano, s)
	}
	arg := func(i int) string {
		if i < len(f) {
			return f[i]
		}
		return ""
	}
	switch f[1] {
	case "stats":
		st := store.Stats()
		return fmt.Sprintf(
			"stored=%d deduped=%d skipped=%d\nsegments=%d sealed-bytes=%d retired=%d compacted=%d\nvantages: %s",
			st.Stored, st.Deduped, st.Skipped,
			st.Segments, st.SealedBytes, st.RetiredSegments, st.CompactedEvents,
			strings.Join(store.Vantages(), ", "))
	case "state":
		if len(f) < 3 {
			return usage
		}
		prefix, err := netip.ParsePrefix(f[2])
		if err != nil {
			return err.Error()
		}
		at, err := parseAt(arg(3), time.Now())
		if err != nil {
			return err.Error()
		}
		states, err := store.StateAt(prefix, at)
		if err != nil {
			return err.Error()
		}
		if len(states) == 0 {
			return "no routes alive at " + at.Format(time.RFC3339)
		}
		var b strings.Builder
		for _, rs := range states {
			fmt.Fprintf(&b, "%s via %s path %v since %s at [%s]\n",
				rs.Prefix, rs.Peer, rs.ASPath, rs.Since.Format(time.RFC3339), strings.Join(rs.Vantages, " "))
		}
		return strings.TrimRight(b.String(), "\n")
	case "between":
		if len(f) < 3 {
			return usage
		}
		prefix, err := netip.ParsePrefix(f[2])
		if err != nil {
			return err.Error()
		}
		from, err := parseAt(arg(3), time.Time{})
		if err != nil {
			return err.Error()
		}
		to, err := parseAt(arg(4), time.Now())
		if err != nil {
			return err.Error()
		}
		events, err := store.Between(prefix, from, to)
		if err != nil {
			return err.Error()
		}
		if len(events) == 0 {
			return "no events in range"
		}
		var b strings.Builder
		for _, ev := range events {
			kind := "announce"
			if ev.Withdraw {
				kind = "withdraw"
			}
			fmt.Fprintf(&b, "%s %-8s %s via %s path %v dups=%d at [%s]\n",
				ev.Time.Format(time.RFC3339Nano), kind, ev.Prefix, ev.Peer,
				ev.ASPath, ev.Dups, strings.Join(ev.VantageNames, " "))
		}
		return strings.TrimRight(b.String(), "\n")
	case "diff":
		if len(f) < 4 {
			return usage
		}
		at, err := parseAt(arg(4), time.Now())
		if err != nil {
			return err.Error()
		}
		diffs, err := store.DiffPoPs(f[2], f[3], at)
		if err != nil {
			return err.Error()
		}
		if len(diffs) == 0 {
			return "no divergence: both PoPs hold the same routes"
		}
		var b strings.Builder
		for _, d := range diffs {
			fmt.Fprintf(&b, "%s via %s origin AS%d only at %s\n", d.Prefix, d.Peer, d.Origin, d.OnlyAt)
		}
		return strings.TrimRight(b.String(), "\n")
	}
	return usage
}
