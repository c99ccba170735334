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
# tests/golden/popseq.expected / popseq_datasets.expected (and the
# popseq_pruned* pair under --pruned; --wide diffs all four). The counters
# above may move when the frontier changes how it creates NTDs; these lines
# may not, because the pops are what the answers are built from.
#
# Each suite also has a candidate gate: workcount_dump --candidates prints,
# per query, Algorithm 3's generation counters (candidates, duplicates,
# root_reducible, invalid_structure, invalid_time, predicate_rejected,
# combo_overflows, results), diffed against tests/golden/candidates.expected
# / candidates_datasets.expected (and the candidates_pruned* pair under
# --pruned; --wide diffs all four). A change to how combinations are
# assembled that must not change what they are classified as leaves these
# lines alone.
#
# The counters measure *algorithmic* work (pops, scans, prunes) rather than
# wall time, so they are bit-stable across machines, build flavours, and
# stats modes — any diff means the search explored a different state space
# and must be reviewed as a semantic change, not noise.
#
# With --pruned both suites run with the reachability prune enabled
# (docs/reachability.md) and are gated two ways: the pruned-mode work
# counters (which append reachability_prunes) are diffed against
# workcounts_pruned.expected / workcounts_pruned_datasets.expected, and the
# pruned result fingerprints are diffed against an unpruned run on the
# golden and dblp suites, where equality holds. On the social and
# dblp-bounded datasets a few duration-ranked queries stop the empirical
# bound at a different frontier point (the pruned run finds different
# same-duration trees — see docs/reachability.md, "Bounded stops"), so
# those fingerprints are pinned bit-for-bit in
# workcounts_pruned_results_{social,dblp_bounded}.expected instead.
#
# With --wide every graph is rebuilt over a 200-instant timeline
# (workcount_dump --pad-timeline), past the 128 instants a TimeMask holds,
# so the search runs its IntervalSet path instead of the word-parallel mask
# path (docs/performance.md, "Word-parallel time masks"). The two paths must
# do identical work: the padded default and pruned counters are diffed
# against the SAME expected files as the unpadded runs, and the padded
# result fingerprints against the unpadded ones.
#
# Usage:
#   scripts/workcount_check.sh <build-dir>
#   scripts/workcount_check.sh <build-dir> --pruned
#   scripts/workcount_check.sh <build-dir> --wide
#   TGKS_UPDATE_WORKCOUNTS=1 scripts/workcount_check.sh <build-dir>   # regen
set -euo pipefail

BUILD_DIR="${1:?usage: workcount_check.sh <build-dir> [--pruned|--wide]}"
PRUNED=0
WIDE=0
if [[ "${2:-}" == "--pruned" ]]; then
  PRUNED=1
elif [[ "${2:-}" == "--wide" ]]; then
  WIDE=1
elif [[ -n "${2:-}" ]]; then
  echo "workcount_check: unknown argument '$2'" >&2
  exit 2
fi
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
# --wide's padded timeline: any length past TimeMask::kCapacity (128).
WIDE_TIMELINE=200
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

wide_results_suite() {  # <label> <dump args...>
  local label="$1"; shift
  local narrow wide
  narrow="$(mktemp)"
  wide="$(mktemp)"
  "${DUMP}" --results "$@" > "${narrow}"
  "${DUMP}" --results --pad-timeline "${WIDE_TIMELINE}" "$@" > "${wide}"
  if ! diff -u "${narrow}" "${wide}"; then
    rm -f "${narrow}" "${wide}"
    echo "" >&2
    echo "workcount_check: FAIL — the IntervalSet time path returned" >&2
    echo "different results than the TimeMask path on the ${label} suite." >&2
    echo "The two representations must be indistinguishable; this is a" >&2
    echo "bug, not a counter drift." >&2
    exit 1
  fi
  echo "workcount_check: OK (${label}: $(wc -l < "${narrow}") queries, wide == narrow results)"
  rm -f "${narrow}" "${wide}"
}

pruned_results_suite() {  # <label> <dump args...>
  local label="$1"; shift
  local off on
  off="$(mktemp)"
  on="$(mktemp)"
  "${DUMP}" --results "$@" > "${off}"
  "${DUMP}" --results --pruned "$@" > "${on}"
  if ! diff -u "${off}" "${on}"; then
    rm -f "${off}" "${on}"
    echo "" >&2
    echo "workcount_check: FAIL — the reachability prune changed the" >&2
    echo "results on the ${label} suite. The prune's contract is exact" >&2
    echo "result equivalence (docs/reachability.md); this is a soundness" >&2
    echo "bug, not a counter drift." >&2
    exit 1
  fi
  echo "workcount_check: OK (${label}: $(wc -l < "${off}") queries, pruned == unpruned results)"
  rm -f "${off}" "${on}"
}

if [[ "${WIDE}" == "1" ]]; then
  if [[ "${TGKS_UPDATE_WORKCOUNTS:-0}" == "1" ]]; then
    echo "workcount_check: --wide only diffs; regenerate without it" >&2
    exit 2
  fi
  PAD=(--pad-timeline "${WIDE_TIMELINE}")
  check_suite "${GOLDEN_DIR}/workcounts.expected" "${PAD[@]}" "${GOLDEN_DIR}"
  check_suite "${GOLDEN_DIR}/workcounts_datasets.expected" "${PAD[@]}" \
    --dataset dblp --dataset dblp-bounded --dataset social
  check_suite "${GOLDEN_DIR}/workcounts_pruned.expected" "${PAD[@]}" \
    --pruned "${GOLDEN_DIR}"
  check_suite "${GOLDEN_DIR}/workcounts_pruned_datasets.expected" \
    "${PAD[@]}" --pruned --dataset dblp --dataset dblp-bounded \
    --dataset social
  check_suite "${GOLDEN_DIR}/popseq.expected" "${PAD[@]}" --popseq \
    "${GOLDEN_DIR}"
  check_suite "${GOLDEN_DIR}/popseq_datasets.expected" "${PAD[@]}" \
    --popseq --dataset dblp --dataset dblp-bounded --dataset social
  check_suite "${GOLDEN_DIR}/popseq_pruned.expected" "${PAD[@]}" \
    --popseq --pruned "${GOLDEN_DIR}"
  check_suite "${GOLDEN_DIR}/popseq_pruned_datasets.expected" "${PAD[@]}" \
    --popseq --pruned --dataset dblp --dataset dblp-bounded --dataset social
  check_suite "${GOLDEN_DIR}/candidates.expected" "${PAD[@]}" --candidates \
    "${GOLDEN_DIR}"
  check_suite "${GOLDEN_DIR}/candidates_datasets.expected" "${PAD[@]}" \
    --candidates --dataset dblp --dataset dblp-bounded --dataset social
  check_suite "${GOLDEN_DIR}/candidates_pruned.expected" "${PAD[@]}" \
    --candidates --pruned "${GOLDEN_DIR}"
  check_suite "${GOLDEN_DIR}/candidates_pruned_datasets.expected" \
    "${PAD[@]}" --candidates --pruned --dataset dblp --dataset dblp-bounded \
    --dataset social
  wide_results_suite "golden" "${GOLDEN_DIR}"
  wide_results_suite "datasets" --dataset dblp --dataset dblp-bounded \
    --dataset social
  wide_results_suite "pruned golden" --pruned "${GOLDEN_DIR}"
  wide_results_suite "pruned datasets" --pruned --dataset dblp \
    --dataset dblp-bounded --dataset social
  exit 0
fi

if [[ "${PRUNED}" == "1" ]]; then
  check_suite "${GOLDEN_DIR}/workcounts_pruned.expected" --pruned \
    "${GOLDEN_DIR}"
  check_suite "${GOLDEN_DIR}/workcounts_pruned_datasets.expected" --pruned \
    --dataset dblp --dataset dblp-bounded --dataset social
  check_suite "${GOLDEN_DIR}/popseq_pruned.expected" --popseq --pruned \
    "${GOLDEN_DIR}"
  check_suite "${GOLDEN_DIR}/popseq_pruned_datasets.expected" --popseq \
    --pruned --dataset dblp --dataset dblp-bounded --dataset social
  check_suite "${GOLDEN_DIR}/candidates_pruned.expected" --candidates \
    --pruned "${GOLDEN_DIR}"
  check_suite "${GOLDEN_DIR}/candidates_pruned_datasets.expected" \
    --candidates --pruned --dataset dblp --dataset dblp-bounded \
    --dataset social
  pruned_results_suite "golden" "${GOLDEN_DIR}"
  pruned_results_suite "dblp" --dataset dblp
  check_suite "${GOLDEN_DIR}/workcounts_pruned_results_dblp_bounded.expected" \
    --results --pruned --dataset dblp-bounded
  check_suite "${GOLDEN_DIR}/workcounts_pruned_results_social.expected" \
    --results --pruned --dataset social
  exit 0
fi

check_suite "${GOLDEN_DIR}/workcounts.expected" "${GOLDEN_DIR}"
check_suite "${GOLDEN_DIR}/workcounts_datasets.expected" \
  --dataset dblp --dataset dblp-bounded --dataset social
check_suite "${GOLDEN_DIR}/popseq.expected" --popseq "${GOLDEN_DIR}"
check_suite "${GOLDEN_DIR}/popseq_datasets.expected" --popseq \
  --dataset dblp --dataset dblp-bounded --dataset social
check_suite "${GOLDEN_DIR}/candidates.expected" --candidates "${GOLDEN_DIR}"
check_suite "${GOLDEN_DIR}/candidates_datasets.expected" --candidates \
  --dataset dblp --dataset dblp-bounded --dataset social
