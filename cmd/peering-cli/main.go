// Command peering-cli is an interactive version of the experiment
// toolkit (paper §4.5, Table 1): it brings up a self-contained platform
// with one PoP and two interconnections, approves an experiment, and
// drops into a REPL exposing the toolkit verbs.
//
//	tunnel open|close|status
//	bgp start|stop|status
//	announce <prefix> [to <id>] [except <id>] [prepend <n>] [poison <asn>]
//	withdraw <prefix>
//	routes | show route [prefix] | show protocols
//	ping <addr> [via <id>]
//	neighbors
//	health
//	history stats|state|between|diff
//	metrics [prefix]
//	help | quit
//
// Invoked as `peering-cli metrics [address]` it instead fetches and
// renders the plain-text exposition served by `peeringd -metrics`
// (default address localhost:9179) and exits. Invoked as `peering-cli
// history <verb> [flags]` it queries the /v1/history/* endpoints of a
// `peeringd -history -metrics` instance (see runHistoryCommand).
// Invoked as `peering-cli catchment [flags]` or `peering-cli te status
// [flags]` it queries the /v1/catchment and /v1/te/status endpoints of a
// `peeringd -te -metrics` instance (see runCatchmentCommand and
// runTECommand). Invoked as `peering-cli watch [flags]` it tails the
// control plane's /v1/watch SSE event stream until interrupted (see
// runWatchCommand). Invoked as `peering-cli apply [flags] <spec.json>...`
// or `peering-cli diff [flags] <spec.json>...` it pushes (create or
// CAS-update) or compares declarative experiment specs against the
// /v1/experiments API (see runApplyCommand and runDiffCommand).
package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/guard"
	"repro/internal/history"
	"repro/internal/inet"
	"repro/internal/telemetry"
	"repro/peering"
)

const popName = "amsix"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "metrics" {
		addr := "localhost:9179"
		if len(os.Args) > 2 {
			addr = os.Args[2]
		}
		if err := fetchMetrics(os.Stdout, addr); err != nil {
			log.Fatal(err)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "history" {
		if err := runHistoryCommand(os.Args[2:]); err != nil {
			log.Fatal(err)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "catchment" {
		if err := runCatchmentCommand(os.Args[2:]); err != nil {
			log.Fatal(err)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "te" {
		if err := runTECommand(os.Args[2:]); err != nil {
			log.Fatal(err)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "watch" {
		if err := runWatchCommand(os.Args[2:]); err != nil {
			log.Fatal(err)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "apply" {
		if err := runApplyCommand(os.Args[2:]); err != nil {
			log.Fatal(err)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		if err := runDiffCommand(os.Args[2:]); err != nil {
			log.Fatal(err)
		}
		return
	}
	cfg := inet.DefaultGenConfig()
	cfg.Tier2 = 12
	cfg.Edges = 60
	topo := inet.Generate(cfg)
	// The session's route events land in a throwaway history store so
	// the history verb can time-travel over the REPL session itself.
	histDir, err := os.MkdirTemp("", "peering-cli-history-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(histDir)
	hist, err := history.Open(history.Config{Dir: histDir})
	if err != nil {
		log.Fatal(err)
	}
	// The interactive platform runs with the full convergence-safety
	// layer on: flap damping, MRAI pacing, and the overload watchdog
	// (inspect it with the health verb).
	platform := peering.NewPlatform(peering.PlatformConfig{
		ASN: 47065, Topology: topo,
		Damping:      &guard.DampingConfig{},
		NeighborMRAI: 50 * time.Millisecond,
		Guard:        peering.DefaultGuardConfig(),
		History:      hist,
	})
	defer platform.Close()
	pop, err := platform.AddPoP(peering.PoPConfig{
		Name: popName, RouterID: netip.MustParseAddr("198.51.100.1"),
		LocalPool: netip.MustParsePrefix("127.65.0.0/16"),
		ExpLAN:    netip.MustParsePrefix("100.65.0.0/24"),
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := pop.ConnectTransit(1000, 40); err != nil {
		log.Fatal(err)
	}
	if _, err := pop.ConnectPeer(10000, 40); err != nil {
		log.Fatal(err)
	}
	if err := platform.Submit(peering.Proposal{
		Name: "cli", Owner: "operator", Plan: "interactive toolkit session",
		Prefixes: []netip.Prefix{netip.MustParsePrefix("184.164.224.0/23")},
		ASNs:     []uint32{61574},
	}); err != nil {
		log.Fatal(err)
	}
	key, err := platform.Approve("cli", nil)
	if err != nil {
		log.Fatal(err)
	}
	client := peering.NewClient("cli", key, 61574)
	fmt.Println("peering-cli: experiment 'cli' approved (AS61574, 184.164.224.0/23)")
	fmt.Println("type 'help' for commands")

	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("peering> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			return
		}
		if out := execute(client, pop, platform, line); out != "" {
			fmt.Println(out)
		}
	}
}

func execute(c *peering.Client, pop *peering.PoP, platform *peering.Platform, line string) string {
	f := strings.Fields(line)
	switch f[0] {
	case "help":
		return strings.Join([]string{
			"tunnel open|close|status        manage the VPN tunnel",
			"bgp start|stop|status           manage the BGP session",
			"announce <prefix> [to <id>] [except <id>] [prepend <n>] [poison <asn>]",
			"withdraw <prefix>               retract an announcement",
			"routes                          list learned routes",
			"show route [prefix]             BIRD-style route dump",
			"show protocols                  BIRD-style session status",
			"ping <addr> [via <id>]          data-plane probe",
			"neighbors                       list PoP interconnections",
			"health                          per-PoP watchdog state and pressure",
			"history stats                   history store accounting",
			"history state <prefix> [at]     routes alive at an instant (RFC 3339)",
			"history between <prefix> [from [to]]  a prefix's event timeline",
			"history diff <popA> <popB> [at] routes held at exactly one PoP",
			"metrics [prefix]                dump platform metrics (optionally filtered)",
			"quit",
		}, "\n")
	case "tunnel":
		if len(f) < 2 {
			return "usage: tunnel open|close|status"
		}
		switch f[1] {
		case "open":
			if err := c.OpenTunnel(pop); err != nil {
				return err.Error()
			}
			return "tunnel up, address " + c.LocalIP(popName).String()
		case "close":
			if err := c.CloseTunnel(popName); err != nil {
				return err.Error()
			}
			return "tunnel down"
		case "status":
			return c.TunnelStatus(popName)
		}
	case "bgp":
		if len(f) < 2 {
			return "usage: bgp start|stop|status"
		}
		switch f[1] {
		case "start":
			if err := c.StartBGP(popName); err != nil {
				return err.Error()
			}
			if err := c.WaitEstablished(popName, 5*time.Second); err != nil {
				return err.Error()
			}
			// Let the initial ADD-PATH table dump land so the next
			// command already sees every route.
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_ = platform.Quiesce(ctx)
			cancel()
			return fmt.Sprintf("BGP Established, %d routes learned", len(c.Routes(popName)))
		case "stop":
			if err := c.StopBGP(popName); err != nil {
				return err.Error()
			}
			return "BGP stopped"
		case "status":
			return c.BGPStatus(popName).String()
		}
	case "announce":
		if len(f) < 2 {
			return "usage: announce <prefix> [to <id>] [except <id>] [prepend <n>] [poison <asn>]"
		}
		prefix, err := netip.ParsePrefix(f[1])
		if err != nil {
			return err.Error()
		}
		var opts []peering.AnnounceOption
		for i := 2; i+1 < len(f); i += 2 {
			n, err := strconv.Atoi(f[i+1])
			if err != nil {
				return err.Error()
			}
			switch f[i] {
			case "to":
				opts = append(opts, peering.ToNeighbors(uint32(n)))
			case "except":
				opts = append(opts, peering.ExceptNeighbors(uint32(n)))
			case "prepend":
				opts = append(opts, peering.WithPrepend(n))
			case "poison":
				opts = append(opts, peering.WithPoison(uint32(n)))
			default:
				return "unknown option " + f[i]
			}
		}
		if err := c.Announce(popName, prefix, opts...); err != nil {
			return err.Error()
		}
		return "announced " + prefix.String()
	case "withdraw":
		if len(f) < 2 {
			return "usage: withdraw <prefix>"
		}
		prefix, err := netip.ParsePrefix(f[1])
		if err != nil {
			return err.Error()
		}
		if err := c.Withdraw(popName, prefix, 0); err != nil {
			return err.Error()
		}
		return "withdrew " + prefix.String()
	case "routes":
		return c.CLI(popName, "show route")
	case "show":
		return c.CLI(popName, line)
	case "ping":
		if len(f) < 2 {
			return "usage: ping <addr> [via <id>]"
		}
		dst, err := netip.ParseAddr(f[1])
		if err != nil {
			return err.Error()
		}
		via := uint32(0)
		if len(f) == 4 && f[2] == "via" {
			n, err := strconv.Atoi(f[3])
			if err != nil {
				return err.Error()
			}
			via = uint32(n)
		}
		rtt, err := c.Ping(popName, via, dst, 7, uint16(time.Now().UnixNano()), 3*time.Second)
		if err != nil {
			return err.Error()
		}
		return fmt.Sprintf("reply from %s: rtt=%s", dst, rtt.Round(time.Microsecond))
	case "neighbors":
		var b strings.Builder
		for _, n := range pop.Router.Neighbors() {
			fmt.Fprintf(&b, "id %-3d %-12s AS%-6d routes=%d\n", n.ID, n.Name, n.ASN, n.Table.PathCount())
		}
		return strings.TrimRight(b.String(), "\n")
	case "health":
		report := platform.HealthReport()
		if len(report) == 0 {
			return "watchdog not running (platform built without a GuardConfig)"
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%-10s %-10s %12s %10s %8s %10s\n",
			"pop", "state", "upd/s", "rib-paths", "queue", "loop-lag")
		for _, st := range report {
			fmt.Fprintf(&b, "%-10s %-10s %12.0f %10d %8d %10s\n",
				st.PoP, st.State, st.Pressure.UpdateRate, st.Pressure.RIBPaths,
				st.Pressure.QueueDepth, st.Pressure.LoopLag.Round(time.Microsecond))
		}
		return strings.TrimRight(b.String(), "\n")
	case "history":
		// The monitor goroutine feeds the store asynchronously; drain it
		// so the query sees everything the session just did.
		platform.WaitMonitorDrained(2 * time.Second)
		return executeHistory(platform.History(), f)
	case "metrics":
		prefix := ""
		if len(f) > 1 {
			prefix = f[1]
		}
		return renderMetrics(telemetry.Default().Text(), prefix)
	}
	return "unknown command (try 'help')"
}

// fetchMetrics pulls the exposition from a running peeringd and renders
// it to w.
func fetchMetrics(w io.Writer, addr string) error {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	if !strings.HasSuffix(url, "/metrics") {
		url = strings.TrimRight(url, "/") + "/metrics"
	}
	// A bounded client: a wedged or unreachable peeringd must fail the
	// scrape, not hang the CLI (http.DefaultClient has no timeout).
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("peering-cli: %s returned %s", url, resp.Status)
	}
	_, err = fmt.Fprint(w, renderMetrics(string(body), "")+"\n")
	return err
}

// renderMetrics filters an exposition down to series whose name starts
// with prefix (empty keeps everything) and drops comment lines, the
// operator-facing view of the raw scrape format.
func renderMetrics(text, prefix string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if prefix != "" && !strings.HasPrefix(line, prefix) {
			continue
		}
		out = append(out, line)
	}
	if len(out) == 0 {
		return "no metrics matched"
	}
	return strings.Join(out, "\n")
}
