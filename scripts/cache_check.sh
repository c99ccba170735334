#!/usr/bin/env bash
# Result cache gate (docs/caching.md), HTTP end to end: boot
# `tgks_cli --dataset social --serve --cache`, POST the same query twice
# (identical bodies, second is `x-cache: hit`), verify "cache": false
# bypasses the cache, and verify /varz reports the result cache as the
# only cache level. Then the live section: boot with
# `--live`, and check that a publish that misses the cached search's read
# set carries the entry (a hit under the new generation, body equal to an
# uncached reference) while one that adds a zero-increment in-edge to an
# expanded node drops it, and one whose in-edge there is heavier than any
# path in the graph carries it past the touch (docs/caching.md, "Read
# sets").
#
# usage: scripts/cache_check.sh <build-dir>
set -euo pipefail

BUILD_DIR="${1:?usage: cache_check.sh <build-dir>}"
GATE=cache_check
source "$(dirname "$0")/http_gate_lib.sh"

start_server --cache
BODY='{"query":"n1, n2","matches":[[1],[2]],"k":3}'
REFERENCE='{"query":"n1, n2","matches":[[1],[2]],"k":3,"cache":false}'

post() {  # <body-out> <headers-out> [extra curl args...]
  local body="$1" headers="$2"; shift 2
  local code
  code="$(curl -s -o "${body}" -D "${headers}" -w '%{http_code}' "$@")"
  [[ "${code}" == "200" ]] \
      || { echo "cache_check: HTTP ${code}" >&2; cat "${body}" >&2; exit 1; }
}
header() {  # <headers-file> <name> -> prints the header's value ("" if absent)
  grep -i "^$2:" "$1" | tr -d '\r' | awk '{print $2}' || true
}
xcache() {  # <headers-file> -> prints the x-cache value ("" if absent)
  header "$1" x-cache
}

post "${WORK}/b1" "${WORK}/h1" -X POST --data "${BODY}" "${URL}/v1/search"
post "${WORK}/b2" "${WORK}/h2" -X POST --data "${BODY}" "${URL}/v1/search"
[[ "$(xcache "${WORK}/h1")" == "miss" ]] \
    || { echo "cache_check: first request not a miss" >&2; exit 1; }
[[ "$(xcache "${WORK}/h2")" == "hit" ]] \
    || { echo "cache_check: repeat request not a hit" >&2; exit 1; }
cmp "${WORK}/b1" "${WORK}/b2" \
    || { echo "cache_check: hit body differs from miss body" >&2; exit 1; }
echo "cache_check: OK (miss then hit, bodies byte-identical)"

# Per-request opt-out: "cache": false must bypass the cache entirely.
post "${WORK}/b3" "${WORK}/h3" -X POST --data "${REFERENCE}" \
    "${URL}/v1/search"
[[ -z "$(xcache "${WORK}/h3")" ]] \
    || { echo "cache_check: cache:false still touched the cache" >&2; exit 1; }
cmp "${WORK}/b1" "${WORK}/b3" \
    || { echo "cache_check: uncached body differs" >&2; exit 1; }
echo "cache_check: OK (cache:false bypasses, body still identical)"

curl -s "${URL}/varz" > "${WORK}/varz.json"
grep -q '"result_cache"' "${WORK}/varz.json" \
    || { echo "cache_check: /varz missing result_cache section" >&2; exit 1; }
if grep -qE '"(match_cache|query_cache_generation)"' "${WORK}/varz.json"; then
  echo "cache_check: /varz still reports a match-set cache level" >&2
  exit 1
fi

stop_server

# Live section: read-set validation across publishes.
start_server --cache --live
expect_search() {  # <tag> <x-cache> <generation>: search, compare to reference
  local tag="$1" want="$2" generation="$3"
  post "${WORK}/${tag}" "${WORK}/${tag}.h" -X POST --data "${BODY}" \
      "${URL}/v1/search"
  post "${WORK}/${tag}.ref" "${WORK}/${tag}.ref.h" -X POST \
      --data "${REFERENCE}" "${URL}/v1/search"
  [[ "$(xcache "${WORK}/${tag}.h")" == "${want}" ]] \
      || { echo "cache_check: ${tag}: x-cache is" \
                "'$(xcache "${WORK}/${tag}.h")', want '${want}'" >&2; exit 1; }
  [[ "$(header "${WORK}/${tag}.h" x-snapshot-generation)" == "${generation}" ]] \
      || { echo "cache_check: ${tag}: not answered at generation" \
                "${generation}" >&2; exit 1; }
  cmp "${WORK}/${tag}" "${WORK}/${tag}.ref" \
      || { echo "cache_check: ${tag}: body differs from the uncached" \
                "reference" >&2; exit 1; }
}
expect_search l1 miss 0
expect_search l2 hit 0
# Two new nodes joined only to each other: no in-slot the search read
# changed, and match-set queries read no postings.
post "${WORK}/i1" "${WORK}/i1.h" -X POST "${URL}/v1/ingest" --data \
    '{"nodes":[{"label":"cachecheck a","weight":1},{"label":"cachecheck b","weight":1}],
      "edges":[{"src_new":0,"dst_new":1},{"src_new":1,"dst_new":0}]}'
expect_search l3 hit 1
echo "cache_check: OK (live: a publish outside the read set carries the entry)"
# An in-edge of weight 0 from a weight-0 node to node 1, the first
# keyword's match: its frontier popped it first, and a zero increment is
# within every slack, so the publish changes the read set whatever the
# dataset's distances.
post "${WORK}/i2" "${WORK}/i2.h" -X POST "${URL}/v1/ingest" --data \
    '{"nodes":[{"label":"cachecheck c","weight":0}],
      "edges":[{"src_new":0,"dst":1,"weight":0}]}'
expect_search l4 miss 2
expect_search l5 hit 2
echo "cache_check: OK (live: an in-edge to an expanded node drops the entry)"
curl -s "${URL}/varz" > "${WORK}/live_varz.json"
grep -q '"carried_hits":1,' "${WORK}/live_varz.json" \
    || { echo "cache_check: /varz carried_hits is not 1:" >&2;
         cat "${WORK}/live_varz.json" >&2; exit 1; }
grep -qE '"read_set_bytes":[1-9]' "${WORK}/live_varz.json" \
    || { echo "cache_check: /varz reports no read_set_bytes" >&2; exit 1; }
# An in-edge to node 1 heavier than any path in the graph (its 15,000
# nodes' edges weigh 1 each): the new child lies beyond every frontier's
# final top, so the entry is carried past a change that named its node.
post "${WORK}/i3" "${WORK}/i3.h" -X POST "${URL}/v1/ingest" --data \
    '{"nodes":[{"label":"cachecheck d","weight":0}],
      "edges":[{"src_new":0,"dst":1,"weight":1000000000}]}'
expect_search l6 hit 3
curl -s "${URL}/varz" > "${WORK}/heavy_varz.json"
grep -q '"carried_past_touch":1,' "${WORK}/heavy_varz.json" \
    || { echo "cache_check: /varz carried_past_touch is not 1:" >&2;
         cat "${WORK}/heavy_varz.json" >&2; exit 1; }
echo "cache_check: OK (live: an in-edge beyond the slack carries the entry)"
stop_server
echo "cache_check: OK"
