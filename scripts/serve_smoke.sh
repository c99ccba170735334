#!/usr/bin/env bash
# Serving smoke test (CI): boots `tgks_cli --serve` on the bench social
# dataset, curls every endpoint, drives a short `curl --parallel` load of
# fixed match-set searches, and asserts zero unexpected non-2xx responses.
# A second, deliberately saturated pass (--max-queue 1) asserts the server
# sheds with 429 instead of hanging, and that SIGTERM drains cleanly both
# times.
#
# usage: scripts/serve_smoke.sh <build-dir>
set -euo pipefail

BUILD_DIR="${1:?usage: serve_smoke.sh <build-dir>}"
GATE=serve_smoke
source "$(dirname "$0")/http_gate_lib.sh"

echo "== pass 1: healthy server, zero non-2xx expected =="
start_server
expect_code 200 "http://127.0.0.1:${PORT}/healthz"
grep -q '^ok$' "${WORK}/body.out"
expect_code 200 "http://127.0.0.1:${PORT}/metrics"
grep -q '^tgks_http_requests_total' "${WORK}/body.out"
expect_code 200 "http://127.0.0.1:${PORT}/varz"
grep -q '"dataset":"social"' "${WORK}/body.out"
expect_code 200 -X POST --data '{"query":"n1, n2","matches":[[1],[2]],"k":3}' \
    "http://127.0.0.1:${PORT}/v1/search"
grep -q '"status":"ok"' "${WORK}/body.out"
expect_code 400 -X POST --data '{"query":' "http://127.0.0.1:${PORT}/v1/search"
grep -q '"type":"json"' "${WORK}/body.out"
expect_code 404 "http://127.0.0.1:${PORT}/nope"

# The social graph is unlabeled, so every search names its match sets.
printf '{"query":"a, b","matches":[[1,2,3],[40,41,42]],"k":10}' \
    > "${WORK}/search1.json"
printf '{"query":"a, b, c","matches":[[5,6],[70,71],[300,301]],"k":10}' \
    > "${WORK}/search2.json"
printf '{"query":"a, b","matches":[[9,10,11,12],[150,151]],"k":5}' \
    > "${WORK}/search3.json"
SEARCHES=(search:"${WORK}/search1.json" search:"${WORK}/search2.json"
          search:"${WORK}/search3.json")

load_config 200 "${SEARCHES[@]}" > "${WORK}/load1.cfg"
curl --no-progress-meter --parallel --parallel-max 2 -K "${WORK}/load1.cfg" \
    > "${WORK}/tally1" || true
tally "${WORK}/tally1" 200
if (( OK == 0 || SHED != 0 || OTHER != 0 || ERRORS != 0 )); then
  echo "serve_smoke: pass 1 wants all 2xx: ${OK} ok, ${SHED} shed," \
       "${OTHER} other, ${ERRORS} transport errors" >&2
  exit 1
fi
echo "pass 1 ok: ${OK} requests, all 2xx"
stop_server

echo "== pass 2: deliberate saturation, 429s expected, no errors =="
start_server --max-queue 1 --threads 1
load_config 400 "${SEARCHES[@]}" > "${WORK}/load2.cfg"
curl --no-progress-meter --parallel --parallel-max 8 -K "${WORK}/load2.cfg" \
    > "${WORK}/tally2" || true
tally "${WORK}/tally2" 400
if (( SHED == 0 || OTHER != 0 || ERRORS != 0 )); then
  echo "serve_smoke: pass 2 wants 429s and no errors: ${OK} ok, ${SHED}" \
       "shed, ${OTHER} other, ${ERRORS} transport errors" >&2
  exit 1
fi
echo "pass 2 ok: ${OK} served, ${SHED} shed, 0 errors"
stop_server

echo "serve_smoke: OK"
