#!/usr/bin/env bash
# Live-ingest smoke test (CI): boots `tgks_cli --serve --live` on the bench
# social dataset and walks the whole streaming lifecycle over real HTTP —
# ingest a batch, verify a query admitted after the publish sees it, fold
# the delta via /v1/compact, verify the folded graph still answers, then
# drive a mixed read/write `curl --parallel` load and SIGTERM the server
# with ingest traffic in flight to prove the drain stays clean.
#
# usage: scripts/ingest_smoke.sh <build-dir>
set -euo pipefail

BUILD_DIR="${1:?usage: ingest_smoke.sh <build-dir>}"
GATE=ingest_smoke
source "$(dirname "$0")/http_gate_lib.sh"

body_has() {  # args: grep pattern; asserts against the last response body.
  grep -q "$1" "${WORK}/body.out" || {
    echo "ingest_smoke: body missing $1:" >&2
    cat "${WORK}/body.out" >&2
    exit 1
  }
}

echo "== pass 1: ingest -> search -> compact -> search lifecycle =="
start_server --live
expect_code 200 "http://127.0.0.1:${PORT}/varz"
body_has '"live":true'
body_has '"snapshot_generation":0'

# Nothing matches the keyword before the publish.
expect_code 200 -X POST --data '{"query":"smoketest"}' \
    "http://127.0.0.1:${PORT}/v1/search"
body_has '"result_count":0'

# One batch: a fresh node stitched to base node 0. The response reports the
# published generation and the delta it now carries.
expect_code 200 -X POST --data \
    '{"nodes":[{"label":"smoketest fresh","weight":1.0}],
      "edges":[{"src":0,"dst_new":0}]}' \
    "http://127.0.0.1:${PORT}/v1/ingest"
body_has '"generation":1'
body_has '"nodes_added":1'
body_has '"edges_added":1'

# A query admitted after the publish answers through the overlay.
expect_code 200 -X POST --data '{"query":"smoketest"}' \
    "http://127.0.0.1:${PORT}/v1/search"
body_has '"result_count":1'

# Validation errors come back structured, and never publish.
expect_code 400 -X POST --data '{"nodes":[{"label":7}]}' \
    "http://127.0.0.1:${PORT}/v1/ingest"
body_has '"code":"bad-shape"'

# Fold the delta; the rebuilt graph must still answer for the ingested node.
expect_code 200 -X POST "http://127.0.0.1:${PORT}/v1/compact"
body_has '"generation":2'
body_has '"manual_runs":1'
body_has '"delta_bytes":0'
expect_code 200 -X POST --data '{"query":"smoketest"}' \
    "http://127.0.0.1:${PORT}/v1/search"
body_has '"result_count":1'
expect_code 200 "http://127.0.0.1:${PORT}/varz"
body_has '"snapshot_generation":2'
body_has '"delta_bytes":0'
stop_server

echo "== pass 2: ingest endpoints 404 without --live =="
start_server
expect_code 404 -X POST --data '{"nodes":[]}' \
    "http://127.0.0.1:${PORT}/v1/ingest"
expect_code 404 -X POST "http://127.0.0.1:${PORT}/v1/compact"
stop_server

echo "== pass 3: mixed read/write load, then drain with writes in flight =="
start_server --live
# The social graph is unlabeled, so searches name their match sets; each
# write stitches a fresh node to base node 0, as in pass 1.
printf '{"query":"a, b","matches":[[1,2,3],[40,41,42]],"k":10}' \
    > "${WORK}/search1.json"
printf '{"query":"a, b, c","matches":[[5,6],[70,71],[300,301]],"k":10}' \
    > "${WORK}/search2.json"
printf '%s' '{"nodes":[{"label":"live smoke","weight":1.0}],' \
    '"edges":[{"src":0,"dst_new":0}]}' > "${WORK}/ingest.json"
SEARCH1=search:"${WORK}/search1.json"
SEARCH2=search:"${WORK}/search2.json"
INGEST=ingest:"${WORK}/ingest.json"

# One write in five.
load_config 250 "${SEARCH1}" "${SEARCH2}" "${SEARCH1}" "${SEARCH2}" \
    "${INGEST}" > "${WORK}/load3.cfg"
curl --no-progress-meter --parallel --parallel-max 2 -K "${WORK}/load3.cfg" \
    > "${WORK}/tally3" || true
tally "${WORK}/tally3" 250
WRITES="$(grep -c '^ingest 200 0$' "${WORK}/tally3" || true)"
if (( WRITES == 0 || SHED != 0 || OTHER != 0 || ERRORS != 0 )); then
  echo "ingest_smoke: pass 3 wants acknowledged writes and all 2xx:" \
       "${WRITES} writes, ${OK} ok, ${SHED} shed, ${OTHER} other," \
       "${ERRORS} transport errors" >&2
  exit 1
fi
expect_code 200 "http://127.0.0.1:${PORT}/varz"
GENERATION="$(grep -oE '"snapshot_generation":[0-9]+' "${WORK}/body.out" \
               | cut -d: -f2)"
if (( GENERATION < WRITES )); then
  echo "ingest_smoke: generation ${GENERATION} < ${WRITES} writes" >&2
  exit 1
fi
echo "pass 3 ok: ${WRITES} writes published, generation ${GENERATION}"

# Drain while a background writer is mid-stream: in-flight requests finish
# or shed, the listener closes, and the exit stays clean. The run is far
# longer than the wait, so writes are in flight at the SIGTERM.
load_config 20000 "${SEARCH1}" "${INGEST}" > "${WORK}/load4.cfg"
curl --no-progress-meter --parallel --parallel-max 2 -K "${WORK}/load4.cfg" \
    > /dev/null 2>&1 &
LOAD_PID=$!
sleep 2
stop_server
kill "${LOAD_PID}" 2>/dev/null || true
wait "${LOAD_PID}" 2>/dev/null || true

echo "ingest_smoke: OK"
