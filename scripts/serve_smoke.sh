#!/usr/bin/env bash
# Serve smoke: start the `spec-trends serve` daemon on the 1017-report
# synthetic corpus written to a watched directory, curl every endpoint,
# byte-compare the twelve unfiltered figure/data bodies against the
# files `spec-trends figures`/`export` write for the same corpus,
# drop one new report into the directory, and assert the watcher
# refreshes the snapshot re-executing exactly ONE (year, vendor)
# partition. Then exercise the hostile-traffic hardening with raw
# sockets: a header flood (431), a slow-loris client (cut by the read
# deadline), and an overload shed (503 + Retry-After while the daemon
# keeps serving) — finishing with an exact check of the /stats
# connection-lifecycle accounting and a graceful `/shutdown`.
#
#   ./scripts/serve_smoke.sh [port]
#
# Default port 17878.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${1:-17878}"
BASE="http://127.0.0.1:${PORT}"
CORPUS=.ci-serve-corpus
CACHE=.ci-serve-cache
EXPORTS=.ci-serve-exports
rm -rf "$CORPUS" "$CACHE" "$EXPORTS"

# One-shot GET: `Connection: close` frees the single worker immediately
# instead of leaving it parked in the keep-alive idle wait until curl
# gets around to closing its side.
qget() { curl -sf -H 'Connection: close' "$@"; }

cargo build --release -p spec-trends

./target/release/spec-trends generate --out "$CORPUS"
test "$(ls "$CORPUS" | wc -l)" -eq 1017

# Tight limits on purpose: one worker slot and a one-deep queue make the
# shed scenario below deterministic, and a 1 s request deadline makes the
# slow-loris cut fast.
./target/release/spec-trends serve --data "$CORPUS" --addr "127.0.0.1:${PORT}" \
  --cache-dir "$CACHE" --poll-ms 50 \
  --max-inflight 1 --queue-depth 1 --request-deadline-ms 1000 \
  --idle-timeout-ms 2000 --drain-timeout-ms 3000 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT

# Wait for the daemon to come up (cold snapshot builds first).
for _ in $(seq 1 120); do
  qget "$BASE/stats" > /dev/null 2>&1 && break
  sleep 0.5
done

# Every endpoint answers 200 with a non-empty body.
for target in / /stats \
    /figures/1 /figures/2 /figures/3 /figures/4 /figures/5 /figures/6 \
    /data/1 /data/2 /data/3 /data/4 /data/5 /data/6 \
    "/data/2?vendor=amd" "/figures/3?year=2015&vendor=intel"; do
  body="$(qget "$BASE$target")"
  test -n "$body" || { echo "serve_smoke: empty body for $target" >&2; exit 1; }
done
# Capture whole bodies before matching: with pipefail, a `grep -q` that
# exits at its first match fails the pipeline when curl is still writing.
svg="$(qget "$BASE/figures/2")"
grep -q '</svg>' <<< "$svg"
csv="$(qget "$BASE/data/2")"
grep -q 'year' <<< "${csv%%$'\n'*}"

stats="$(qget "$BASE/stats")"
echo "$stats" | grep -q 'raw 1017' || {
  echo "serve_smoke: expected raw 1017 in /stats" >&2; echo "$stats" >&2; exit 1
}
qget "$BASE/data/1" > .ci-serve-data1-before.csv

# Serve == CLI exports: every unfiltered body is byte-identical to the
# file the batch CLI writes for the same corpus.
./target/release/spec-trends figures --out "$EXPORTS/figures" --data "$CORPUS" > /dev/null
./target/release/spec-trends export --out "$EXPORTS/data" --data "$CORPUS" > /dev/null
FIGURE_FILES=(fig1_shares.svg fig2_power.svg fig3_efficiency.svg fig4_grid.svg
  fig5_idle.svg fig6_extrapolated.svg)
DATA_FILES=(fig1_shares.csv fig2_per_socket_power.csv fig3_overall_efficiency.csv
  fig4_relative_efficiency.csv fig5_idle_fraction.csv fig6_extrapolated_quotient.csv)
for n in 1 2 3 4 5 6; do
  for pair in "figures:$EXPORTS/figures/${FIGURE_FILES[n-1]}" "data:$EXPORTS/data/${DATA_FILES[n-1]}"; do
    kind="${pair%%:*}"
    file="${pair#*:}"
    qget "$BASE/$kind/$n" > "$EXPORTS/served"
    cmp -s "$EXPORTS/served" "$file" || {
      echo "serve_smoke: /$kind/$n differs from $file" >&2; exit 1
    }
  done
done

# Drop one new report into the watched directory: a copy of an existing
# report under a new name lands in the same (year, vendor) partition.
cp "$(ls "$CORPUS"/*.txt | head -1)" "$CORPUS/zz_smoke_new.txt"

# The poller notices within a few intervals and refreshes incrementally.
for _ in $(seq 1 200); do
  stats="$(qget "$BASE/stats")"
  echo "$stats" | grep -q 'raw 1018' && break
  sleep 0.1
done
echo "$stats" | grep -q 'raw 1018' || {
  echo "serve_smoke: watcher never picked up the new report" >&2
  echo "$stats" >&2; exit 1
}
# Exactly the touched partition re-executed its one `part-rows` stage;
# the other 43 partitions were served warm from the artifact cache.
echo "$stats" | grep -q '^last_refresh: executed 1 hits ' || {
  echo "serve_smoke: expected exactly one stage execution" >&2
  echo "$stats" >&2; exit 1
}
echo "$stats" | grep -q 'partitions_executed 1$' || {
  echo "serve_smoke: expected exactly one partition to re-execute" >&2
  echo "$stats" >&2; exit 1
}
# The refreshed snapshot is visible in the data endpoints.
qget "$BASE/data/1" > .ci-serve-data1-after.csv
if cmp -s .ci-serve-data1-before.csv .ci-serve-data1-after.csv; then
  echo "serve_smoke: /data/1 did not change after the corpus update" >&2
  exit 1
fi

# --- hostile-traffic hardening ---------------------------------------

# Liveness and readiness probes.
test "$(qget "$BASE/healthz")" = "ok"
test "$(qget "$BASE/readyz")" = "ready"

# Header flood: a single oversized header must classify as 431, and the
# daemon must keep serving afterwards.
flood="$(printf 'x%.0s' $(seq 1 9000))"
code="$(curl -s -o /dev/null -w '%{http_code}' -H "Connection: close" -H "X-Flood: $flood" "$BASE/stats")"
test "$code" = "431" || { echo "serve_smoke: expected 431 for header flood, got $code" >&2; exit 1; }

# Unknown method → 501, known-but-unsupported → 405.
test "$(curl -s -o /dev/null -w '%{http_code}' -X BOGUS "$BASE/stats")" = "501"
test "$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/stats")" = "405"

# Slow-loris via a raw socket: trickle half a request line, then stall
# past the 1 s request deadline. The daemon must cut the connection
# without writing a byte (no torn response), and count the timeout.
exec 5<>"/dev/tcp/127.0.0.1/${PORT}"
printf 'GET /st' >&5
sleep 1.5
loris="$(timeout 2 cat <&5 || true)"
exec 5<&- 5>&-
test -z "$loris" || { echo "serve_smoke: slow-loris got bytes: $loris" >&2; exit 1; }
sleep 0.3
stats="$(qget "$BASE/stats")"
echo "$stats" | grep -q 'conns_timed_out 1' || {
  echo "serve_smoke: slow-loris not counted as timed out" >&2; echo "$stats" >&2; exit 1
}
echo "$stats" | grep -q 'timeout_read 1' || {
  echo "serve_smoke: slow-loris not counted as a read timeout" >&2; echo "$stats" >&2; exit 1
}

# Overload shed: hold the only worker slot and the one-deep queue with
# silent raw sockets; the next connection must be shed immediately with
# 503 + Retry-After — and the daemon must keep serving once released.
exec 6<>"/dev/tcp/127.0.0.1/${PORT}"
sleep 0.3
exec 7<>"/dev/tcp/127.0.0.1/${PORT}"
sleep 0.3
shed_headers="$(curl -s -D - -o /dev/null --max-time 10 -H 'Connection: close' "$BASE/stats" || true)"
echo "$shed_headers" | grep -q '^HTTP/1.1 503' || {
  echo "serve_smoke: expected a 503 shed, got:" >&2; echo "$shed_headers" >&2; exit 1
}
echo "$shed_headers" | grep -qi '^Retry-After:' || {
  echo "serve_smoke: shed 503 missing Retry-After" >&2; echo "$shed_headers" >&2; exit 1
}
exec 6<&- 6>&-
exec 7<&- 7>&-
sleep 0.3

# The daemon is alive, the shed is accounted, and the lifecycle ledger
# balances exactly: offered = shed + accepted + queued, and
# accepted = completed + timed_out + aborted + active.
stats="$(qget "$BASE/stats")"
stat() { echo "$stats" | awk -v k="$1" '$1 == k { print $2 }'; }
test "$(stat conns_shed)" = "1" || {
  echo "serve_smoke: expected exactly one shed connection" >&2; echo "$stats" >&2; exit 1
}
offered="$(stat conns_offered)"
rhs=$(( $(stat conns_shed) + $(stat conns_accepted) + $(stat conns_queued) ))
test "$offered" -eq "$rhs" || {
  echo "serve_smoke: offered ($offered) != shed+accepted+queued ($rhs)" >&2
  echo "$stats" >&2; exit 1
}
accepted="$(stat conns_accepted)"
rhs=$(( $(stat conns_completed) + $(stat conns_timed_out) + $(stat conns_aborted) + $(stat conns_active) ))
test "$accepted" -eq "$rhs" || {
  echo "serve_smoke: accepted ($accepted) != completed+timed_out+aborted+active ($rhs)" >&2
  echo "$stats" >&2; exit 1
}
test "$(stat worker_panics)" = "0"

# Graceful shutdown: the endpoint drains the workers and the process exits.
qget "$BASE/shutdown" > /dev/null
wait "$SERVE_PID"
trap - EXIT

rm -rf "$CORPUS" "$CACHE" "$EXPORTS" .ci-serve-data1-before.csv .ci-serve-data1-after.csv
echo "serve_smoke: OK (1017+1 reports, one partition re-executed, 431/503/slow-loris hardened)"
