package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"
)

// apiHTTPClient bounds the remote history and TE verbs like the metrics
// scrape: a wedged peeringd fails the query instead of hanging the CLI.
var apiHTTPClient = &http.Client{Timeout: 10 * time.Second}

// runCatchmentCommand implements `peering-cli catchment [flags]`,
// fetching the current catchment map from the /v1/catchment endpoint of a
// running `peeringd -te -metrics` instance.
func runCatchmentCommand(args []string) error {
	usage := `usage: peering-cli catchment [flags]

fetches the anycast catchment map peeringd resolved for its TE
population: which PoP each client population's BGP best path lands on,
the per-PoP client weights, and the FIB digests the map was read from.

flags:
  -addr host:port   peeringd metrics address (default localhost:9179)
  -prefix P         resolve for this prefix instead of the -te default`
	fs := flag.NewFlagSet("catchment", flag.ExitOnError)
	addr := fs.String("addr", "localhost:9179", "peeringd metrics address")
	prefix := fs.String("prefix", "", "prefix override")
	fs.Usage = func() { fmt.Fprintln(os.Stderr, usage) }
	if err := fs.Parse(args); err != nil {
		return err
	}
	q := url.Values{}
	if *prefix != "" {
		q.Set("prefix", *prefix)
	}
	return apiGet(*addr, "/v1/catchment", q)
}

// runTECommand implements `peering-cli te status [flags]`, fetching the
// closed-loop controller's progress from /v1/te/status.
func runTECommand(args []string) error {
	usage := `usage: peering-cli te status [flags]

reports the traffic-engineering controller's progress: targets, the
round history (imbalance, shares, actions), and on infeasibility the
certificate describing the knob state that could not reach the targets.

flags:
  -addr host:port   peeringd metrics address (default localhost:9179)`
	if len(args) == 0 || args[0] != "status" {
		return fmt.Errorf("%s", usage)
	}
	fs := flag.NewFlagSet("te", flag.ExitOnError)
	addr := fs.String("addr", "localhost:9179", "peeringd metrics address")
	fs.Usage = func() { fmt.Fprintln(os.Stderr, usage) }
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	return apiGet(*addr, "/v1/te/status", nil)
}

// teGet fetches one JSON endpoint and prints the body verbatim.
func apiGet(addr, path string, q url.Values) error {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	u := strings.TrimRight(base, "/") + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	resp, err := apiHTTPClient.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("peering-cli: %s returned %s: %s", u, resp.Status, strings.TrimSpace(string(body)))
	}
	_, err = fmt.Print(string(body))
	return err
}
