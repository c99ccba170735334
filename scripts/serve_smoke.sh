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
CLI="${BUILD_DIR}/examples/tgks_cli"
[[ -x "${CLI}" ]] || { echo "serve_smoke: ${CLI} not built" >&2; exit 1; }

# Small dataset so the server's generation stays fast.
export TGKS_BENCH_SCALE="${TGKS_BENCH_SCALE:-0.3}"

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  [[ -n "${SERVER_PID}" ]] && kill "${SERVER_PID}" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "${WORK}"
}
trap cleanup EXIT

start_server() {  # args: extra tgks_cli flags; sets SERVER_PID and PORT.
  : > "${WORK}/server.log"
  "${CLI}" --dataset social --serve --port 0 "$@" \
      > "${WORK}/server.log" 2>&1 &
  SERVER_PID=$!
  PORT=""
  for _ in $(seq 1 200); do
    PORT="$(grep -oE 'http://127\.0\.0\.1:[0-9]+' "${WORK}/server.log" \
            | head -1 | sed 's/.*://' || true)"
    [[ -n "${PORT}" ]] && return 0
    kill -0 "${SERVER_PID}" 2>/dev/null \
        || { echo "serve_smoke: server died:"; cat "${WORK}/server.log"; exit 1; }
    sleep 0.3
  done
  echo "serve_smoke: server never printed its port" >&2
  cat "${WORK}/server.log" >&2
  exit 1
}

stop_server() {  # SIGTERM must drain and exit 0.
  kill -TERM "${SERVER_PID}"
  local status=0
  wait "${SERVER_PID}" || status=$?
  SERVER_PID=""
  if [[ "${status}" -ne 0 ]]; then
    echo "serve_smoke: server exited ${status} after SIGTERM" >&2
    cat "${WORK}/server.log" >&2
    exit 1
  fi
  grep -q "shutdown requested" "${WORK}/server.log" \
      || { echo "serve_smoke: no drain banner" >&2; exit 1; }
}

load_config() {  # args: count endpoint:body-file...; prints a curl config.
  # `count` POSTs to /v1/<endpoint>, cycling over the targets; each writes
  # one "<endpoint> <http_code> <curl exitcode>" line.
  local count="$1"; shift
  local targets=("$@") target i
  for ((i = 0; i < count; ++i)); do
    target="${targets[i % ${#targets[@]}]}"
    (( i == 0 )) || echo next
    printf 'url = "http://127.0.0.1:%s/v1/%s"\n' "${PORT}" "${target%%:*}"
    printf 'data-binary = "@%s"\noutput = "/dev/null"\nmax-time = 30\n' \
        "${target#*:}"
    printf 'write-out = "%s %%{http_code} %%{exitcode}\\n"\n' \
        "${target%%:*}"
  done
}

tally() {  # args: tally-file count; prints it, sets OK SHED OTHER ERRORS.
  sort "$1" | uniq -c
  local lines
  lines="$(wc -l < "$1")"
  if [[ "${lines}" -ne "$2" ]]; then
    echo "serve_smoke: ${lines} of $2 requests reported" >&2
    exit 1
  fi
  read -r OK SHED OTHER ERRORS < <(awk '
      $3 != 0 { errors++; next }
      $2 ~ /^2/ { ok++; next }
      $2 == 429 { shed++; next }
      { other++ }
      END { print ok + 0, shed + 0, other + 0, errors + 0 }' "$1")
}

expect_code() {  # args: expected-code curl-args...
  local expected="$1"; shift
  local code
  code="$(curl -s -o "${WORK}/body.out" -w '%{http_code}' "$@")"
  if [[ "${code}" != "${expected}" ]]; then
    echo "serve_smoke: expected ${expected}, got ${code} for: $*" >&2
    cat "${WORK}/body.out" >&2
    exit 1
  fi
}

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
