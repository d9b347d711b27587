#!/usr/bin/env bash
# Black-box smoke test of the peeringd control-plane API: boot a small
# platform with a durable state dir, drive a full experiment lifecycle
# purely over HTTP — index, dry-run, create, idempotent re-create,
# convergence, RIB query, stale CAS, the unversioned endpoints of earlier
# releases gone — kill the daemon with SIGKILL and check specs and deploy
# revisions survive the restart, then delete and check the daemon drains
# cleanly on SIGTERM.
#
# Usage: scripts/api_smoke.sh [host:port]   (default 127.0.0.1:19179)
set -euo pipefail

addr=${1:-127.0.0.1:19179}
base="http://$addr"
workdir=$(mktemp -d)
pd=""
cleanup() {
    [ -n "$pd" ] && kill "$pd" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

say()  { printf 'api-smoke: %s\n' "$*"; }
fail() { say "FAIL: $*"; sed -n '1,60p' "$workdir/peeringd.log" 2>/dev/null; exit 1; }

# One API call: method path [body]; prints the status code, body lands
# in $workdir/last.json.
req() {
    local method=$1 path=$2 body=${3:-}
    if [ -n "$body" ]; then
        curl -s -o "$workdir/last.json" -w '%{http_code}' -X "$method" "$base$path" -d "$body"
    else
        curl -s -o "$workdir/last.json" -w '%{http_code}' -X "$method" "$base$path"
    fi
}

go build -o "$workdir/peeringd" ./cmd/peeringd

boot() {
    "$workdir/peeringd" -pops 2 -edges 60 -ixp-members 10 -metrics "$addr" \
        -state-dir "$workdir/state" >>"$workdir/peeringd.log" 2>&1 &
    pd=$!
    say "waiting for $base"
    for _ in $(seq 1 120); do
        curl -fsS "$base/" >/dev/null 2>&1 && break
        kill -0 "$pd" 2>/dev/null || fail "peeringd exited during startup"
        sleep 1
    done
}

boot
curl -fsS "$base/" | grep -q '"service": "peeringd"' || fail "root index is not the JSON service index"
[ "$(req GET /no-such-path)" = 404 ] || fail "unknown path did not 404"
# One HTTP surface: everything but / and /metrics lives under /v1.
for legacy in /catchment /history/stats; do
    [ "$(req GET "$legacy")" = 404 ] || fail "legacy endpoint $legacy still answers"
done
say "index + 404 ok"

spec='{"name":"smoke","owner":"ci","asn":61574,"prefixes":["184.164.224.0/24"],"announcements":[{"prefix":"184.164.224.0/24","pops":["pop00","pop01"]}]}'

[ "$(req POST '/v1/experiments?dry_run=1' "$spec")" = 200 ] || fail "dry run rejected"
grep -q '"dry_run": true' "$workdir/last.json" || fail "dry run response malformed"
[ "$(req GET /v1/experiments/smoke)" = 404 ] || fail "dry run stored the object"

[ "$(req POST /v1/experiments "$spec")" = 201 ] || fail "create did not return 201"
[ "$(req POST /v1/experiments "$spec")" = 200 ] || fail "idempotent re-POST did not return 200"
say "create ok (201, then idempotent 200)"

say "waiting for convergence"
for _ in $(seq 1 150); do
    req GET /v1/experiments/smoke >/dev/null
    grep -q '"phase": "converged"' "$workdir/last.json" && break
    sleep 0.2
done
grep -q '"phase": "converged"' "$workdir/last.json" || fail "experiment never converged: $(cat "$workdir/last.json")"

for pop in pop00 pop01; do
    [ "$(req GET "/v1/rib?pop=$pop&table=experiments")" = 200 ] || fail "rib query at $pop failed"
    grep -q '184.164.224.0/24' "$workdir/last.json" || fail "announcement missing from $pop RIB"
done
say "converged; announcement present in both experiment RIBs"

# Stale CAS: a PATCH at a bogus revision must 409 without disturbing
# the object.
[ "$(req PATCH /v1/experiments/smoke "{\"revision\":999,\"spec\":$spec}")" = 409 ] || fail "stale PATCH did not 409"
req GET /v1/experiments/smoke >/dev/null
grep -q '"phase": "converged"' "$workdir/last.json" || fail "stale PATCH disturbed the object"
say "stale CAS rejected with 409"

# Crash phase: promote the object's revision, SIGKILL the daemon, and
# restart it over the same state dir. The WAL must bring back the spec
# at its exact revision and the deploy map, and the recovered reconciler
# must re-actuate the experiment on the rebuilt platform.
req GET /v1/experiments/smoke >/dev/null
rev=$(sed -n 's/.*"revision": \([0-9]*\).*/\1/p' "$workdir/last.json" | head -1)
[ -n "$rev" ] || fail "no object revision before the crash"
[ "$(req POST /v1/deploy/promote "{\"revision\":$rev}")" = 200 ] || fail "promote before the crash failed"

say "killing peeringd with SIGKILL"
kill -9 "$pd"
wait "$pd" 2>/dev/null || true
pd=""
boot

[ "$(req GET /v1/experiments/smoke)" = 200 ] || fail "spec did not survive the crash"
grep -q "\"revision\": $rev" "$workdir/last.json" || fail "recovered spec lost revision $rev: $(cat "$workdir/last.json")"
say "waiting for reconvergence after restart"
for _ in $(seq 1 150); do
    req GET /v1/experiments/smoke >/dev/null
    grep -q '"phase": "converged"' "$workdir/last.json" && break
    sleep 0.2
done
grep -q '"phase": "converged"' "$workdir/last.json" || fail "experiment never reconverged after the crash: $(cat "$workdir/last.json")"
[ "$(req GET "/v1/rib?pop=pop00&table=experiments")" = 200 ] || fail "rib query after restart failed"
grep -q '184.164.224.0/24' "$workdir/last.json" || fail "announcement not re-actuated after the crash"
[ "$(req GET /v1/deploy)" = 200 ] || fail "deploy status after restart failed"
for pop in pop00 pop01; do
    grep -q "\"$pop\": $rev" "$workdir/last.json" || fail "deploy revision of $pop did not survive the crash: $(cat "$workdir/last.json")"
done
say "crash ok: spec (revision $rev), actuation, and deploy map survived kill -9"

[ "$(req DELETE /v1/experiments/smoke)" = 202 ] || fail "delete did not return 202"
for _ in $(seq 1 150); do
    [ "$(req GET /v1/experiments/smoke)" = 404 ] && break
    sleep 0.2
done
[ "$(req GET /v1/experiments/smoke)" = 404 ] || fail "deleted experiment still present"
req GET "/v1/rib?pop=pop00&table=experiments" >/dev/null
grep -q '184.164.224.0/24' "$workdir/last.json" && fail "teardown left the announcement in the RIB"
say "delete ok; teardown cleaned the RIB"

kill -TERM "$pd"
for _ in $(seq 1 100); do kill -0 "$pd" 2>/dev/null || break; sleep 0.2; done
if kill -0 "$pd" 2>/dev/null; then
    fail "peeringd did not exit after SIGTERM"
fi
wait "$pd" || fail "peeringd exited non-zero after SIGTERM"
pd=""
say "SIGTERM drained cleanly; all checks passed"
