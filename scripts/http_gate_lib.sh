# Shared helpers for the HTTP gates (serve_smoke.sh, ingest_smoke.sh,
# cache_check.sh). Source it after setting GATE (the log prefix) and
# BUILD_DIR; it checks that tgks_cli is built, makes the scratch directory
# WORK (removed on exit, with any server still running) and defines:
#   start_server [tgks_cli flags...]  boot `--dataset social --serve` on an
#                                     ephemeral port; sets SERVER_PID, PORT
#                                     and URL; the log is ${WORK}/server.log
#   stop_server                       SIGTERM; must drain and exit 0
#   expect_code <code> <curl args...> one request; body in ${WORK}/body.out
#   load_config <count> <endpoint:body-file...>   a `curl -K` load config
#   tally <tally-file> <count>        sets OK SHED OTHER ERRORS

CLI="${BUILD_DIR}/examples/tgks_cli"
[[ -x "${CLI}" ]] || { echo "${GATE}: ${CLI} not built" >&2; exit 1; }

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

start_server() {
  : > "${WORK}/server.log"
  "${CLI}" --dataset social --serve --port 0 "$@" \
      > "${WORK}/server.log" 2>&1 &
  SERVER_PID=$!
  PORT=""
  for _ in $(seq 1 200); do
    PORT="$(grep -oE 'http://127\.0\.0\.1:[0-9]+' "${WORK}/server.log" \
            | head -1 | sed 's/.*://' || true)"
    if [[ -n "${PORT}" ]]; then
      URL="http://127.0.0.1:${PORT}"
      return 0
    fi
    kill -0 "${SERVER_PID}" 2>/dev/null \
        || { echo "${GATE}: server died:"; cat "${WORK}/server.log"; exit 1; }
    sleep 0.3
  done
  echo "${GATE}: server never printed its port" >&2
  cat "${WORK}/server.log" >&2
  exit 1
}

stop_server() {
  kill -TERM "${SERVER_PID}"
  local status=0
  wait "${SERVER_PID}" || status=$?
  SERVER_PID=""
  if [[ "${status}" -ne 0 ]]; then
    echo "${GATE}: server exited ${status} after SIGTERM" >&2
    cat "${WORK}/server.log" >&2
    exit 1
  fi
  grep -q "shutdown requested" "${WORK}/server.log" \
      || { echo "${GATE}: no drain banner" >&2; exit 1; }
}

load_config() {
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

tally() {  # Prints the tally too.
  sort "$1" | uniq -c
  local lines
  lines="$(wc -l < "$1")"
  if [[ "${lines}" -ne "$2" ]]; then
    echo "${GATE}: ${lines} of $2 requests reported" >&2
    exit 1
  fi
  read -r OK SHED OTHER ERRORS < <(awk '
      $3 != 0 { errors++; next }
      $2 ~ /^2/ { ok++; next }
      $2 == 429 { shed++; next }
      { other++ }
      END { print ok + 0, shed + 0, other + 0, errors + 0 }' "$1")
}

expect_code() {
  local expected="$1"; shift
  local code
  code="$(curl -s -o "${WORK}/body.out" -w '%{http_code}' "$@")"
  if [[ "${code}" != "${expected}" ]]; then
    echo "${GATE}: expected ${expected}, got ${code} for: $*" >&2
    cat "${WORK}/body.out" >&2
    exit 1
  fi
}
