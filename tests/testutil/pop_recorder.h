// Test-side record of a keyword frontier's pops.
//
// BestPathIterator keeps no per-node pop lists: the engine keeps its own
// meeting lists and nothing else reads them. Tests that compare what two
// frontiers popped at each node pop through a PopRecorder instead, which
// files every NTD id Next() returns under its (origin, node), in pop order.

#ifndef TGKS_TESTS_TESTUTIL_POP_RECORDER_H_
#define TGKS_TESTS_TESTUTIL_POP_RECORDER_H_

#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "graph/temporal_graph.h"
#include "search/best_path_iterator.h"

namespace tgks::testutil {

class PopRecorder {
 public:
  /// Records the pops of `iter`, which must outlive the recorder.
  explicit PopRecorder(search::BestPathIterator* iter) : iter_(iter) {}

  /// Pops `iter` once and records the pop. Returns what Next() returned.
  search::NtdId Next() {
    const search::NtdId id = iter_->Next();
    if (id != search::kInvalidNtd) {
      const search::Ntd& ntd = iter_->ntd(id);
      popped_[{ntd.origin, ntd.node}].push_back(id);
    }
    return id;
  }

  /// Pops `iter` until it is exhausted.
  void Drain() {
    while (Next() != search::kInvalidNtd) {
    }
  }

  /// Popped NTD ids of source `origin` at `node`, in pop order. Empty if
  /// that source never popped the node.
  std::span<const search::NtdId> At(graph::NodeId node,
                                    int32_t origin = 0) const {
    const auto it = popped_.find({origin, node});
    if (it == popped_.end()) return {};
    return it->second;
  }

  /// Distinct nodes source `origin` popped.
  int64_t NodesReached(int32_t origin) const {
    int64_t nodes = 0;
    for (const auto& [key, ids] : popped_) nodes += key.first == origin;
    return nodes;
  }

 private:
  search::BestPathIterator* iter_;
  std::map<std::pair<int32_t, graph::NodeId>, std::vector<search::NtdId>>
      popped_;
};

}  // namespace tgks::testutil

#endif  // TGKS_TESTS_TESTUTIL_POP_RECORDER_H_
