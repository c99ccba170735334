// NTD triplets: the exploration unit of the temporal best path iterator
// (paper §3.1).
//
// An NTD (node, time-interval-set, distance) records that the best known
// path from one of the iterator's sources (the NTD's `origin`) to `node`,
// valid throughout `time`, has accumulated weight `dist`. The parent chain
// reconstructs the path: an NTD created by expanding edge
// e = (node -> parent_node) stores e in `via_edge`, so following parents
// walks the *forward* path node -> ... -> source (iterators traverse edges
// backward; results need forward paths from the root to the keyword
// matches).

#ifndef TGKS_SEARCH_NTD_H_
#define TGKS_SEARCH_NTD_H_

#include <cstdint>

#include "graph/temporal_graph.h"
#include "temporal/time_mask.h"

namespace tgks::search {

/// Index of an NTD within one iterator's arena (shared by all its sources).
using NtdId = int32_t;

inline constexpr NtdId kInvalidNtd = -1;

/// Lifecycle of an NTD inside the iterator.
enum class NtdState : uint8_t {
  kQueued,  ///< Pushed, not yet selected.
  kPopped,  ///< Selected and expanded; usable for result generation.
  kDead,    ///< Pruned by duration subsumption (Algorithm 2 case 3).
};

/// One (node, T, d) triplet plus path-reconstruction links.
///
/// Layout (48 bytes): node, origin | time (two words) | dist | parent,
/// via_edge | state, index_row.
struct Ntd {
  graph::NodeId node = graph::kInvalidNode;
  /// Index of the iterator source whose expansion created this NTD (0 for
  /// a one-source iterator). Sits in what would otherwise be padding.
  int32_t origin = 0;
  /// Full validity T of the path to `node`, when the graph's timeline fits
  /// a TimeMask. On longer timelines the iterator keeps T as an IntervalSet
  /// in a parallel arena and leaves this empty; BestPathIterator::TimeOf
  /// reads T in either representation.
  temporal::TimeMask time;
  double dist = 0.0;           ///< Accumulated node+edge weight.
  NtdId parent = kInvalidNtd;  ///< NTD expanded from; kInvalidNtd at source.
  graph::EdgeId via_edge = graph::kInvalidEdge;  ///< Edge node -> parent node.
  NtdState state = NtdState::kQueued;
  int32_t index_row = -1;  ///< Row handle in the duration subsumption index.
};

// NTD arenas of heavy queries hold hundreds of thousands of these: the
// inline mask replaced a 24-byte IntervalSet header (56 -> 48 bytes), and
// nothing may grow the element back.
static_assert(sizeof(Ntd) == 48, "Ntd must stay 48 bytes");

}  // namespace tgks::search

#endif  // TGKS_SEARCH_NTD_H_
