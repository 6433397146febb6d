#!/usr/bin/env bash
# Shard smoke: the scatter-gather fleet against a monolithic reference.
#
# Generates the 1017-report corpus, starts one reference daemon, two
# shard daemons (`--shard 1/2`, `--shard 2/2`) and a `--fan-out` front
# end, then byte-compares every figure/data/filtered/aggregated target
# between the reference and the front end. Exercises the grown query
# grammar (year ranges, vendor lists, agg=year) and its typed 4xx
# rejections, checks the front-end /stats shard table, asserts that a
# second front end over two daemons owning the same shard answers 503 +
# Retry-After instead of counting rows twice, kills one shard and
# asserts an uncached query degrades to a prompt 503 + Retry-After,
# and finishes with an out-of-core check: a single `--scale 100`
# daemon (~101,700 reports) under `--max-resident-mb 64` must keep its
# VmHWM below 512 MiB.
#
#   ./scripts/shard_smoke.sh [base-port]
#
# Default base port 17890 (uses base..base+5).
set -euo pipefail
cd "$(dirname "$0")/.."

BASE_PORT="${1:-17890}"
REF_PORT=$BASE_PORT
SHARD1_PORT=$((BASE_PORT + 1))
SHARD2_PORT=$((BASE_PORT + 2))
FRONT_PORT=$((BASE_PORT + 3))
SHARD1B_PORT=$((BASE_PORT + 4))
OVERLAP_PORT=$((BASE_PORT + 5))
CORPUS=.ci-shard-corpus
OUT=.ci-shard-out
rm -rf "$CORPUS" "$OUT"
mkdir -p "$OUT"

qget() { curl -sf -H 'Connection: close' "$@"; }
qcode() { curl -s -o /dev/null -w '%{http_code}' -H 'Connection: close' "$@"; }

PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
}
trap cleanup EXIT

wait_ready() { # port
  for _ in $(seq 1 240); do
    curl -sf -H 'Connection: close' "http://127.0.0.1:$1/readyz" > /dev/null 2>&1 && return 0
    sleep 0.5
  done
  echo "shard_smoke: daemon on port $1 never became ready" >&2
  return 1
}

cargo build --release -p spec-trends

./target/release/spec-trends generate --out "$CORPUS"
test "$(ls "$CORPUS" | wc -l)" -eq 1017

# Reference: one monolithic daemon over the corpus.
./target/release/spec-trends serve --data "$CORPUS" --addr "127.0.0.1:${REF_PORT}" &
REF_PID=$!
PIDS+=($REF_PID)
# The fleet: two shards plus a scatter-gather front end.
./target/release/spec-trends serve --data "$CORPUS" --addr "127.0.0.1:${SHARD1_PORT}" --shard 1/2 &
SHARD1_PID=$!
PIDS+=($SHARD1_PID)
./target/release/spec-trends serve --data "$CORPUS" --addr "127.0.0.1:${SHARD2_PORT}" --shard 2/2 &
SHARD2_PID=$!
PIDS+=($SHARD2_PID)
wait_ready "$SHARD1_PORT"
wait_ready "$SHARD2_PORT"
./target/release/spec-trends serve --addr "127.0.0.1:${FRONT_PORT}" \
  --fan-out "127.0.0.1:${SHARD1_PORT},127.0.0.1:${SHARD2_PORT}" &
FRONT_PID=$!
PIDS+=($FRONT_PID)
wait_ready "$REF_PORT"
wait_ready "$FRONT_PORT"

REF="http://127.0.0.1:${REF_PORT}"
FRONT="http://127.0.0.1:${FRONT_PORT}"

# Every target class, including the grown grammar: year ranges, vendor
# lists and yearly aggregates. Bytes must match the reference exactly.
TARGETS=(
  /figures/1 /figures/2 /figures/3 /figures/4 /figures/5 /figures/6
  /data/1 /data/2 /data/3 /data/4 /data/5 /data/6
  "/data/2?vendor=amd"
  "/data/5?year=2015"
  "/data/2?year=2012-2015"
  "/data/6?vendor=intel,amd"
  "/figures/3?year=2013-2016&vendor=intel"
  "/data/3?agg=year"
  "/data/5?year=2011-2015&vendor=intel&agg=year"
)
i=0
for target in "${TARGETS[@]}"; do
  qget "$REF$target" > "$OUT/ref.$i"
  qget "$FRONT$target" > "$OUT/front.$i"
  if ! cmp -s "$OUT/ref.$i" "$OUT/front.$i"; then
    echo "shard_smoke: $target differs between reference and fan-out" >&2
    exit 1
  fi
  test -s "$OUT/ref.$i" || { echo "shard_smoke: empty body for $target" >&2; exit 1; }
  i=$((i + 1))
done
# The aggregate endpoint serves the yearly-mean CSV shape.
qget "$FRONT/data/3?agg=year" | head -1 | grep -q '^vendor,year,' || {
  echo "shard_smoke: agg=year CSV missing its header" >&2; exit 1
}

# Malformed filters are typed 400s on both daemons — never 500s.
for bad in "/data/2?year=2015-2010" "/data/2?vendor=nvidia" \
    "/data/2?agg=bogus" "/figures/2?agg=year" "/data/2?color=red"; do
  for base in "$REF" "$FRONT"; do
    code="$(qcode "$base$bad")"
    test "$code" = "400" || {
      echo "shard_smoke: expected 400 for $bad on $base, got $code" >&2; exit 1
    }
  done
done

# The front-end /stats table accounts for both shards.
stats="$(qget "$FRONT/stats")"
echo "$stats" | grep -q 'snapshot_mode fan-out' || {
  echo "shard_smoke: front end is not in fan-out mode" >&2; echo "$stats" >&2; exit 1
}
for port in "$SHARD1_PORT" "$SHARD2_PORT"; do
  echo "$stats" | grep -q "127.0.0.1:${port}" || {
    echo "shard_smoke: /stats shard table missing 127.0.0.1:${port}" >&2
    echo "$stats" >&2; exit 1
  }
done
echo "$stats" | grep -q 'raw 1017' || {
  echo "shard_smoke: fan-out /stats does not sum shard corpora to raw 1017" >&2
  echo "$stats" >&2; exit 1
}

# Overlapping shards: a second `--shard 1/2` daemon and a front end over
# the two `1/2` daemons. Every row they own arrives twice, so a filtered
# query must answer 503 + Retry-After rather than render double counts.
./target/release/spec-trends serve --data "$CORPUS" --addr "127.0.0.1:${SHARD1B_PORT}" --shard 1/2 &
SHARD1B_PID=$!
PIDS+=($SHARD1B_PID)
wait_ready "$SHARD1B_PORT"
./target/release/spec-trends serve --addr "127.0.0.1:${OVERLAP_PORT}" \
  --fan-out "127.0.0.1:${SHARD1_PORT},127.0.0.1:${SHARD1B_PORT}" &
OVERLAP_PID=$!
PIDS+=($OVERLAP_PID)
wait_ready "$OVERLAP_PORT"
headers="$(curl -s -D - -o /dev/null --max-time 10 -H 'Connection: close' \
  "http://127.0.0.1:${OVERLAP_PORT}/data/2?vendor=amd" || true)"
echo "$headers" | grep -q '^HTTP/1.1 503' || {
  echo "shard_smoke: expected 503 from overlapping shards, got:" >&2
  echo "$headers" >&2; exit 1
}
echo "$headers" | grep -qi '^Retry-After:' || {
  echo "shard_smoke: overlapping-shard 503 missing Retry-After" >&2
  echo "$headers" >&2; exit 1
}

# Kill one shard: an uncached scatter query must degrade to a prompt
# 503 + Retry-After (bounded by the request deadline), never a hang.
kill "$SHARD2_PID"
wait "$SHARD2_PID" 2>/dev/null || true
start_s=$SECONDS
headers="$(curl -s -D - -o /dev/null --max-time 10 -H 'Connection: close' \
  "$FRONT/data/4?year=2014&vendor=amd" || true)"
elapsed=$((SECONDS - start_s))
echo "$headers" | grep -q '^HTTP/1.1 503' || {
  echo "shard_smoke: expected 503 from a dead shard, got:" >&2
  echo "$headers" >&2; exit 1
}
echo "$headers" | grep -qi '^Retry-After:' || {
  echo "shard_smoke: dead-shard 503 missing Retry-After" >&2
  echo "$headers" >&2; exit 1
}
test "$elapsed" -le 5 || {
  echo "shard_smoke: dead-shard 503 took ${elapsed}s (deadline is 2s)" >&2; exit 1
}
# Memoized targets keep answering from the front end's cache.
qget "$FRONT/data/2" > "$OUT/front.cached"
cmp -s "$OUT/ref.7" "$OUT/front.cached" || {
  echo "shard_smoke: cached /data/2 changed after shard death" >&2; exit 1
}

# Drain the fleet and wait for the processes to exit: the x100 daemon
# below rebinds the reference port.
qget "$REF/shutdown" > /dev/null
qget "$FRONT/shutdown" > /dev/null
qget "http://127.0.0.1:${OVERLAP_PORT}/shutdown" > /dev/null
qget "http://127.0.0.1:${SHARD1_PORT}/shutdown" > /dev/null
qget "http://127.0.0.1:${SHARD1B_PORT}/shutdown" > /dev/null
wait "$REF_PID" "$FRONT_PID" "$OVERLAP_PID" "$SHARD1_PID" "$SHARD1B_PID" 2>/dev/null || true

# --- out-of-core ×100 ------------------------------------------------
# A single daemon streams the ×100 synthetic corpus (~101,700 reports)
# into the segmented row store under a 64 MiB resident budget; its
# peak RSS must stay under 512 MiB.
./target/release/spec-trends serve --addr "127.0.0.1:${REF_PORT}" \
  --scale 100 --max-resident-mb 64 &
X100_PID=$!
PIDS+=($X100_PID)
wait_ready "$REF_PORT"
stats="$(qget "$REF/stats")"
echo "$stats" | grep -q 'snapshot_mode stream' || {
  echo "shard_smoke: x100 daemon is not stream-built" >&2; echo "$stats" >&2; exit 1
}
echo "$stats" | grep -q 'raw 101700' || {
  echo "shard_smoke: x100 daemon did not ingest 101700 reports" >&2
  echo "$stats" >&2; exit 1
}
qget "$REF/data/2?year=2012-2015&vendor=amd" > /dev/null
vmhwm_kb="$(awk '/^VmHWM:/ { print $2 }' "/proc/${X100_PID}/status")"
test "$vmhwm_kb" -lt $((512 * 1024)) || {
  echo "shard_smoke: x100 daemon VmHWM ${vmhwm_kb} kB breaks the 512 MiB budget" >&2
  exit 1
}
qget "$REF/shutdown" > /dev/null
wait "$X100_PID" 2>/dev/null || true

trap - EXIT
cleanup
rm -rf "$CORPUS" "$OUT"
echo "shard_smoke: OK (2-shard fan-out byte-identical, typed 400s, overlapping shards -> 503, dead shard -> 503, x100 VmHWM ${vmhwm_kb} kB < 512 MiB)"
