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
#include "temporal/interval_set.h"

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
struct Ntd {
  graph::NodeId node = graph::kInvalidNode;
  /// Index of the iterator source whose expansion created this NTD (0 for
  /// a one-source iterator). Sits in what would otherwise be padding.
  int32_t origin = 0;
  temporal::IntervalSet time;  ///< Full validity of the path to `node`.
  double dist = 0.0;           ///< Accumulated node+edge weight.
  NtdId parent = kInvalidNtd;  ///< NTD expanded from; kInvalidNtd at source.
  graph::EdgeId via_edge = graph::kInvalidEdge;  ///< Edge node -> parent node.
  NtdState state = NtdState::kQueued;
  int32_t index_row = -1;  ///< Row handle in the duration subsumption index.
};

// The origin tag must not grow the arena's element: NTD arenas of heavy
// queries hold hundreds of thousands of these.
static_assert(sizeof(Ntd) == 56, "Ntd must stay 56 bytes");

}  // namespace tgks::search

#endif  // TGKS_SEARCH_NTD_H_
