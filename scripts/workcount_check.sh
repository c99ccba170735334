#!/usr/bin/env bash
# Deterministic work-count regression gate.
#
# Runs two suites through `workcount_dump` and diffs the six search work
# counters (ntds_pushed, ntds_popped, edges_scanned, useless_pops,
# subsumption_skips, subsumption_evictions) against their expected files:
#
#   * the checked-in golden queries (tests/golden/*.tgf) against
#     tests/golden/workcounts.expected;
#   * the seeded datagen dblp + dblp-bounded + social benchmark workloads
#     against tests/golden/workcounts_datasets.expected, so layout changes
#     are pinned on benchmark-shaped graphs under both partition and
#     subsumption semantics, not just on the toy graphs. dblp-bounded is
#     the same bibliographic graph with bounded (non-suffix) validity
#     intervals — the temporal shape append-only dblp can never produce.
#
# Each suite also has a pop-sequence gate: workcount_dump --popseq prints,
# per query and keyword frontier, one order-sensitive hash over every pop's
# (origin, node, dist, time, via_edge), diffed against
# tests/golden/popseq.expected / popseq_datasets.expected. The counters
# above may move when the frontier changes how it creates NTDs; these lines
# may not, because the pops are what the answers are built from.
#
# Each suite also has a candidate gate: workcount_dump --candidates prints,
# per query, Algorithm 3's generation counters (candidates, duplicates,
# root_reducible, invalid_structure, invalid_time, predicate_rejected,
# combo_overflows, results), diffed against tests/golden/candidates.expected
# / candidates_datasets.expected. A change to how combinations are
# assembled that must not change what they are classified as leaves these
# lines alone.
#
# Each suite also has an answer gate: workcount_dump --results prints, per
# query, the result count, the stop reason and one order-sensitive hash over
# every result tree's signature, time and weight, diffed against
# tests/golden/results.expected / results_datasets.expected.
#
# A last gate pins per-keyword work on the two perfbench query sets:
# workcount_dump --keywords prints, per query, the stop reason and each
# keyword's match count and frontier pops, diffed against
# tests/golden/keywords.expected. It shows which keyword's frontier a
# change of expansion work lands on (dblp#175's `maputi`, for one).
#
# The counters measure *algorithmic* work (pops, scans, prunes) rather than
# wall time, so they are bit-stable across machines, build flavours, and
# stats modes — any diff means the search explored a different state space
# and must be reviewed as a semantic change, not noise.
#
# With --quality it runs the answer-quality gate instead: workcount_dump
# --quality compares the default bound's top-10 with the exact top-10
# (UpperBoundKind::kAccurate) on the two perfbench query sets, against
# tests/golden/quality.expected. The exact top-k must never move, so a
# changed exact_hash fails, and so does a higher summed default weight
# (default_weight; lower is better). Both hold under TGKS_UPDATE_WORKCOUNTS=1
# too: regeneration only records moves of exact_equal, recall and a lower
# default_weight, which the change must state. About a minute.
#
# With --wide every graph is rebuilt over a 200-instant timeline
# (workcount_dump --pad-timeline), past the 128 instants a TimeMask holds,
# so the search runs its IntervalSet path instead of the word-parallel mask
# path (docs/performance.md, "Word-parallel time masks"). The two paths must
# do identical work and return identical answers: every padded dump is
# diffed against the SAME expected file as the unpadded one.
#
# Usage:
#   scripts/workcount_check.sh <build-dir>
#   scripts/workcount_check.sh <build-dir> --wide
#   scripts/workcount_check.sh <build-dir> --quality
#   TGKS_UPDATE_WORKCOUNTS=1 scripts/workcount_check.sh <build-dir>   # regen
set -euo pipefail

BUILD_DIR="${1:?usage: workcount_check.sh <build-dir> [--wide|--quality]}"
# --wide's padded timeline: any length past TimeMask::kCapacity (128).
PAD=()
QUALITY=0
if [[ "${2:-}" == "--quality" ]]; then
  QUALITY=1
elif [[ "${2:-}" == "--wide" ]]; then
  if [[ "${TGKS_UPDATE_WORKCOUNTS:-0}" == "1" ]]; then
    echo "workcount_check: --wide only diffs; regenerate without it" >&2
    exit 2
  fi
  PAD=(--pad-timeline 200)
elif [[ -n "${2:-}" ]]; then
  echo "workcount_check: unknown argument '$2'" >&2
  exit 2
fi
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
DUMP="${BUILD_DIR}/tools/workcount_dump"
GOLDEN_DIR="${REPO_ROOT}/tests/golden"

if [[ ! -x "${DUMP}" ]]; then
  echo "workcount_check: ${DUMP} not built (need target workcount_dump)" >&2
  exit 2
fi

check_suite() {  # <expected-file> <dump args...>
  local expected="$1"; shift
  local actual
  actual="$(mktemp)"
  "${DUMP}" "$@" > "${actual}"
  if [[ "${TGKS_UPDATE_WORKCOUNTS:-0}" == "1" ]]; then
    cp "${actual}" "${expected}"
    echo "workcount_check: updated $(basename "${expected}")"
    rm -f "${actual}"
    return 0
  fi
  if ! diff -u "${expected}" "${actual}"; then
    rm -f "${actual}"
    echo "" >&2
    echo "workcount_check: FAIL — workcount_dump output diverged from" >&2
    echo "$(basename "${expected}"). If the change is intentional," >&2
    echo "re-run with TGKS_UPDATE_WORKCOUNTS=1 and commit the new file." >&2
    exit 1
  fi
  echo "workcount_check: OK ($(wc -l < "${expected}") queries bit-identical vs $(basename "${expected}"))"
  rm -f "${actual}"
}

# The quality gate: hard rules first (they also bind a regeneration), then
# a plain diff of everything else the file pins.
check_quality() {  # <expected-file>
  local expected="$1"
  local actual
  actual="$(mktemp)"
  "${DUMP}" --quality > "${actual}"
  if [[ -f "${expected}" ]] && ! awk '
      { for (i = 2; i <= NF; ++i) { split($i, kv, "="); f[FILENAME, $1, kv[1]] = kv[2] } sets[$1] = 1 }
      END {
        bad = 0
        for (s in sets) {
          if (f[ARGV[1], s, "exact_hash"] != f[ARGV[2], s, "exact_hash"]) {
            printf "workcount_check: FAIL — %s: the exact top-k moved (exact_hash %s -> %s)\n", s, f[ARGV[1], s, "exact_hash"], f[ARGV[2], s, "exact_hash"] > "/dev/stderr"
            bad = 1
          }
          if (f[ARGV[2], s, "default_weight"] + 0 > f[ARGV[1], s, "default_weight"] + 0) {
            printf "workcount_check: FAIL — %s: summed default top-k weight rose (%s -> %s)\n", s, f[ARGV[1], s, "default_weight"], f[ARGV[2], s, "default_weight"] > "/dev/stderr"
            bad = 1
          }
        }
        exit bad
      }' "${expected}" "${actual}"; then
    rm -f "${actual}"
    exit 1
  fi
  if [[ "${TGKS_UPDATE_WORKCOUNTS:-0}" == "1" ]]; then
    cp "${actual}" "${expected}"
    echo "workcount_check: updated $(basename "${expected}")"
  elif ! diff -u "${expected}" "${actual}"; then
    rm -f "${actual}"
    echo "" >&2
    echo "workcount_check: FAIL — answer quality moved against" >&2
    echo "$(basename "${expected}"). If the change is intentional, re-run" >&2
    echo "with TGKS_UPDATE_WORKCOUNTS=1, commit the new file and state the" >&2
    echo "move in CHANGES.md." >&2
    exit 1
  else
    echo "workcount_check: OK (quality identical to $(basename "${expected}"))"
  fi
  rm -f "${actual}"
}

if [[ "${QUALITY}" == "1" ]]; then
  check_quality "${GOLDEN_DIR}/quality.expected"
  exit 0
fi

# One pass per output mode; the expected files are named after the mode
# (no flag = the work counters in workcounts*.expected).
DATASETS=(--dataset dblp --dataset dblp-bounded --dataset social)
for mode in "" --popseq --candidates --results; do
  stem="${mode#--}"
  stem="${stem:-workcounts}"
  check_suite "${GOLDEN_DIR}/${stem}.expected" \
    "${PAD[@]}" ${mode} "${GOLDEN_DIR}"
  check_suite "${GOLDEN_DIR}/${stem}_datasets.expected" \
    "${PAD[@]}" ${mode} "${DATASETS[@]}"
done
check_suite "${GOLDEN_DIR}/keywords.expected" "${PAD[@]}" --keywords
