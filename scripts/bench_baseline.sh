#!/usr/bin/env bash
# Records bench_throughput results into BENCH_throughput.json at the repo
# root, tagging each JSON row with a label, the git revision, and the date.
#
# Usage:
#   scripts/bench_baseline.sh <build-dir> --label <label> [extra-rows.jsonl]
#   scripts/bench_baseline.sh <build-dir> <label> [extra-rows.jsonl]   # legacy
#
# Runs <build-dir>/bench/bench_throughput over a 1,$(nproc) executor-thread
# sweep (one and all cores: 1,4 on the 4-core benchmark box; override with
# TGKS_BENCH_THREADS) and appends one labeled row per (dataset, threads)
# cell. Rows carry the batch-total
# ntds_popped / edges_scanned work counters alongside the latency fields,
# so mode rows (reach-prune) can be compared on state-space
# explored, which is machine-independent. If <extra-rows.jsonl> is given,
# its raw JSON rows are appended under the same label WITHOUT re-running —
# that is how pre-change results captured from an older binary get recorded
# next to the post-change run.
set -euo pipefail

USAGE="usage: bench_baseline.sh <build-dir> --label <label> [rows.jsonl]"
BUILD_DIR="${1:?${USAGE}}"
shift
LABEL=""
RAW_ROWS=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --label)
      LABEL="${2:?${USAGE}}"
      shift 2
      ;;
    *)
      # Legacy positional form: first bare arg is the label, second the
      # raw-rows file.
      if [[ -z "${LABEL}" ]]; then
        LABEL="$1"
      elif [[ -z "${RAW_ROWS}" ]]; then
        RAW_ROWS="$1"
      else
        echo "${USAGE}" >&2
        exit 2
      fi
      shift
      ;;
  esac
done
if [[ -z "${LABEL}" ]]; then
  echo "${USAGE}" >&2
  exit 2
fi

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
OUT="${REPO_ROOT}/BENCH_throughput.json"
REV="$(git -C "${REPO_ROOT}" rev-parse --short HEAD 2>/dev/null || echo unknown)"
DATE="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

tag_rows() {  # stdin: raw bench rows; stdout: labeled rows.
  while IFS= read -r line; do
    [[ "${line}" == \{* ]] || continue
    printf '{"label": "%s", "rev": "%s", "date": "%s", %s\n' \
      "${LABEL}" "${REV}" "${DATE}" "${line#\{}"
  done
}

if [[ -n "${RAW_ROWS}" ]]; then
  tag_rows < "${RAW_ROWS}" >> "${OUT}"
  echo "bench_baseline: recorded $(wc -l < "${RAW_ROWS}") '${LABEL}' rows from ${RAW_ROWS}"
  exit 0
fi

BENCH="${BUILD_DIR}/bench/bench_throughput"
if [[ ! -x "${BENCH}" ]]; then
  echo "bench_baseline: ${BENCH} not built (need target bench_throughput)" >&2
  exit 2
fi

TMP="$(mktemp)"
trap 'rm -f "${TMP}"' EXIT
TGKS_BENCH_THREADS="${TGKS_BENCH_THREADS:-1,$(nproc)}" "${BENCH}" \
  --json-out "${TMP}"
tag_rows < "${TMP}" >> "${OUT}"
echo "bench_baseline: recorded $(wc -l < "${TMP}") '${LABEL}' rows into ${OUT}"
