#include "search/search_engine.h"

#include "common/scratch_pool.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "search/candidate_memo.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <type_traits>

namespace tgks::search {

using graph::EdgeId;
using graph::NodeId;
using temporal::IntervalSet;
using temporal::TimeMask;

std::string_view UpperBoundKindName(UpperBoundKind kind) {
  switch (kind) {
    case UpperBoundKind::kAccurate:
      return "accurate";
    case UpperBoundKind::kEmpirical:
      return "empirical";
    case UpperBoundKind::kAverage:
      return "average";
  }
  return "unknown";
}

std::string_view StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kExhausted:
      return "exhausted";
    case StopReason::kBound:
      return "bound";
    case StopReason::kMaxPops:
      return "max_pops";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

namespace {

/// Process-wide instruments, registered once and updated lock-free per
/// query (see metrics.h: hot path is relaxed atomics via stable pointers).
struct EngineMetrics {
  obs::Counter* queries;
  obs::Counter* pops;
  obs::Counter* ntds_created;
  obs::Counter* results;
  obs::Counter* stop_exhausted;
  obs::Counter* stop_bound;
  obs::Counter* stop_max_pops;
  obs::Counter* stop_deadline;
  obs::Counter* stop_cancelled;
  obs::Gauge* heap_high_water;
  obs::Histogram* query_micros;
  obs::Histogram* pops_per_query;

  static EngineMetrics& Get() {
    static EngineMetrics* m = [] {
      obs::MetricsRegistry& reg = obs::GlobalMetrics();
      auto* out = new EngineMetrics;
      out->queries = reg.GetCounter("tgks_queries_total",
                                    "Search() calls completed.");
      out->pops = reg.GetCounter("tgks_search_pops_total",
                                 "NTDs popped across all queries.");
      out->ntds_created = reg.GetCounter("tgks_search_ntds_created_total",
                                         "NTD triplets created.");
      out->results = reg.GetCounter("tgks_search_results_total",
                                    "Valid result trees emitted.");
      out->stop_exhausted = reg.GetCounter(
          "tgks_search_stop_exhausted_total",
          "Queries that drained every iterator frontier.");
      out->stop_bound = reg.GetCounter(
          "tgks_search_stop_bound_total",
          "Queries stopped by the kth-beats-bound test (sec. 4.2).");
      out->stop_max_pops = reg.GetCounter(
          "tgks_search_stop_max_pops_total",
          "Queries stopped by the max_pops safety valve.");
      out->stop_deadline = reg.GetCounter(
          "tgks_search_stop_deadline_total",
          "Queries stopped by the wall-clock deadline.");
      out->stop_cancelled = reg.GetCounter(
          "tgks_search_stop_cancelled_total",
          "Queries stopped by a cancellation token.");
      out->heap_high_water = reg.GetGauge(
          "tgks_search_heap_high_water",
          "Most entries one frontier source ever held: its queue, plus its "
          "lazily created next pop under pure relevance ranking.");
      out->query_micros = reg.GetHistogram(
          "tgks_query_micros", "Instrumented per-query time (microseconds).");
      out->pops_per_query = reg.GetHistogram(
          "tgks_search_pops_per_query", "NTD pops per query.");
      return out;
    }();
    return *m;
  }
};

/// The meeting lists of Algorithm 3: for every reached node and keyword,
/// the NTDs that keyword's frontier popped there, in pop order. A row is
/// opened for each node at its first pop; each list is a chain through one
/// shared link array. Pooled per thread and epoch-stamped: a warm query
/// neither allocates per pop nor frees per reached node.
class MeetingTable {
 public:
  /// Readies the table for a query over `num_nodes` nodes and `m` keywords.
  void Reset(size_t num_nodes, size_t m) {
    if (row_of_.size() < num_nodes) {
      row_of_.resize(num_nodes);
      stamp_.resize(num_nodes, 0);
    }
    if (++epoch_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      epoch_ = 1;
    }
    num_nodes_ = num_nodes;
    m_ = m;
    rows_ = 0;
    heads_.clear();
    tails_.clear();
    met_.clear();
    links_.clear();
  }

  /// Appends `ntd` to the list of (`node`, `kw`). Returns the node's row.
  int32_t Add(NodeId node, size_t kw, NtdId ntd) {
    const size_t n = static_cast<size_t>(node);
    if (stamp_[n] != epoch_) {
      stamp_[n] = epoch_;
      row_of_[n] = rows_++;
      heads_.resize(static_cast<size_t>(rows_) * m_, -1);
      tails_.resize(static_cast<size_t>(rows_) * m_, -1);
      met_.push_back(0);
    }
    const int32_t row = row_of_[n];
    const size_t cell = static_cast<size_t>(row) * m_ + kw;
    const int32_t link = static_cast<int32_t>(links_.size());
    links_.push_back(Link{ntd, -1});
    if (tails_[cell] < 0) {
      heads_[cell] = link;
      ++met_[static_cast<size_t>(row)];
    } else {
      links_[static_cast<size_t>(tails_[cell])].next = link;
    }
    tails_[cell] = link;
    return row;
  }

  /// Whether every keyword has popped an NTD at `row`'s node.
  bool MetAll(int32_t row) const {
    return met_[static_cast<size_t>(row)] == m_;
  }

  /// Walks the list of (`row`, `kw`): First, then Next until -1.
  int32_t First(int32_t row, size_t kw) const {
    return heads_[static_cast<size_t>(row) * m_ + kw];
  }
  int32_t Next(int32_t link) const {
    return links_[static_cast<size_t>(link)].next;
  }
  NtdId ntd(int32_t link) const {
    return links_[static_cast<size_t>(link)].ntd;
  }

  /// Distinct nodes reached this query.
  int64_t reached() const { return rows_; }

  /// The reached nodes, sorted: read off the stamps in id order. The scan
  /// is O(graph) and runs only when a caller asks for the list (a social
  /// query's 2,650 of 15,000 nodes take about 18 us).
  std::vector<NodeId> ReachedNodes() const {
    std::vector<NodeId> nodes;
    nodes.reserve(static_cast<size_t>(rows_));
    for (size_t n = 0; n < num_nodes_; ++n) {
      if (stamp_[n] == epoch_) nodes.push_back(static_cast<NodeId>(n));
    }
    return nodes;
  }

 private:
  struct Link {
    NtdId ntd;
    int32_t next;
  };
  std::vector<uint32_t> stamp_;  ///< Per node: epoch of its row.
  std::vector<int32_t> row_of_;  ///< Per node: its row, when stamped.
  uint32_t epoch_ = 0;
  size_t num_nodes_ = 0;  ///< This query's graph size.
  size_t m_ = 0;
  int32_t rows_ = 0;
  std::vector<int32_t> heads_, tails_;  ///< Per (row, keyword): chain ends.
  std::vector<size_t> met_;             ///< Per row: non-empty lists.
  std::vector<Link> links_;
};

// A Runner holds one table; a thread runs one query at a time.
using MeetingTablePool = common::ScratchPool<MeetingTable, 2>;

// The same for the candidate memo, acquired at a query's first memo pop.
using CandidateMemoPool = common::ScratchPool<CandidateMemo, 2>;

/// Smallest cross product (combinations at one met-all pop, the fresh NTD
/// pinned) for which the engine builds the pop's candidate memo. Below it
/// the path table costs more than the assemblies it could save. Chosen by
/// measurement on the dblp and social workloads (docs/performance.md,
/// "Candidate verdict memo").
constexpr int64_t kMemoMinCombos = 16;

/// One Search() invocation; owns the keyword frontiers and bookkeeping.
class Runner {
 public:
  Runner(graph::GraphView graph, const Query& query,
         std::vector<std::vector<NodeId>> matches,
         const SearchOptions& options)
      : graph_(graph),
        query_(query),
        options_(options),
        m_(query.keywords.size()),
        match_lists_(std::move(matches)),
        assembler_(graph, &match_lists_),
        chosen_(m_),
        chosen_pos_(m_),
        combo_times_(m_),
        combo_masks_(m_),
        candidate_matches_(m_),
        iterators_(m_),
        meetings_(MeetingTablePool::Acquire()) {
    meetings_->Reset(static_cast<size_t>(graph.num_nodes()), m_);
  }

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  ~Runner() {
    // Release the frontiers last keyword first. The thread's scratch pool
    // hands scratches back last-in first-out, so the next query's keyword
    // i gets the scratch keyword i used here, and each pooled scratch grows
    // only to the heaviest frontier of its own keyword position. Released
    // first to last, the scratches would rotate through the positions and
    // every parked scratch would grow to the heaviest frontier of any.
    for (size_t kw = iterators_.size(); kw-- > 0;) iterators_[kw].reset();
  }

  SearchResponse Run() {
    if (options_.deadline_ms > 0) {
      // A deadline past the clock's last instant could never fire, and
      // Now() + deadline_ms would overflow: such a query runs without one.
      // (A clock that reads before its epoch gets the room from the epoch.)
      using Clock = std::chrono::steady_clock;
      const Clock::time_point now = Now();
      const auto room = std::chrono::duration_cast<std::chrono::milliseconds>(
          Clock::time_point::max() - std::max(now, Clock::time_point{}));
      if (options_.deadline_ms < room.count()) {
        deadline_ = now + std::chrono::milliseconds(options_.deadline_ms);
        has_deadline_ = true;
      }
    }
    FilterMatches();
    // One clock read per phase switch, not two per pop: the frontier
    // build plus the whole loop are timed here, and Finalize() takes the
    // generation time nested inside back out to get seconds_expand.
    expand_timer_.Start();
    CreateIterators();
    const bool any_keyword_dead =
        std::any_of(iterators_.begin(), iterators_.end(),
                    [](const auto& f) { return f->PeekScore() == nullptr; });
    if (any_keyword_dead) {
      // Some keyword has no qualifying match: no result can exist.
      response_.stop_reason = StopReason::kExhausted;
    } else {
      MainLoop();
    }
    expand_timer_.Stop();
    Finalize();
    return std::move(response_);
  }

 private:
  std::chrono::steady_clock::time_point Now() const {
    return options_.clock_fn != nullptr
               ? options_.clock_fn(options_.clock_ctx)
               : std::chrono::steady_clock::now();
  }

  bool Cancelled() const {
    return options_.cancel != nullptr &&
           options_.cancel->load(std::memory_order_relaxed);
  }

  /// QUALIFY(s, P): drop matches that cannot satisfy the predicate.
  void FilterMatches() {
    filter_timer_.Start();
    const PredicateExpr* pred = query_.predicate.get();
    for (auto& list : match_lists_) {
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
      if (pred != nullptr) {
        std::erase_if(list, [&](NodeId n) {
          return !pred->ElementMayQualify(graph_.node(n).validity);
        });
      }
    }
    filter_timer_.Stop();
  }

  /// Builds one frontier per keyword over its filtered match list. Trace
  /// ids of a keyword's sources continue after the previous keywords'.
  void CreateIterators() {
    BestPathIterator::Options iter_options;
    iter_options.ranking = query_.ranking;
    iter_options.prune = query_.predicate.get();
    iter_options.duration_index = options_.duration_index;
    iter_options.trace = options_.trace;
    iter_options.trace_iter = 0;
    for (size_t kw = 0; kw < m_; ++kw) {
      iterators_[kw].emplace(graph_, match_lists_[kw], iter_options);
      iter_options.trace_iter += static_cast<int32_t>(match_lists_[kw].size());
      response_.counters.iterators += iterators_[kw]->num_sources();
    }
  }

  /// Selects which keyword's frontier expands next (§4.1): global best for
  /// relevance, keyword round-robin for temporal rankings. The paper leaves
  /// ties between frontier tops open; they go to the frontier with fewer
  /// sources, then to the lower keyword index, so a rare keyword is not
  /// held back while a common one drains a whole distance shell. Returns
  /// the keyword, or -1 when every frontier is exhausted.
  int SelectKeyword() {
    const bool round_robin =
        options_.round_robin_keywords && query_.ranking.PrimaryIsTemporal();
    if (round_robin) {
      for (size_t step = 0; step < m_; ++step) {
        const int kw = static_cast<int>((rr_cursor_ + step) % m_);
        if (iterators_[static_cast<size_t>(kw)]->PeekScore() != nullptr) {
          rr_cursor_ = (kw + 1) % static_cast<int>(m_);
          return kw;
        }
      }
      return -1;
    }
    int best = -1;
    const ScoreKey* best_score = nullptr;
    for (size_t kw = 0; kw < m_; ++kw) {
      const ScoreKey* front = iterators_[kw]->PeekScore();
      if (front == nullptr) continue;
      if (best < 0 || ScoreBetter(*front, *best_score) ||
          (!ScoreBetter(*best_score, *front) &&
           iterators_[kw]->num_sources() <
               iterators_[static_cast<size_t>(best)]->num_sources())) {
        best = static_cast<int>(kw);
        best_score = front;
      }
    }
    return best;
  }

  void MainLoop() {
    // Amortized deadline poll: steady_clock::now() per pop dominated cheap
    // pops, so the clock is sampled every kDeadlineCheckStridePops pops
    // (first iteration included). Worst-case overshoot: stride - 1 pops
    // past the poll that would have fired.
    int64_t deadline_countdown = 1;
    while (true) {
      if (Cancelled()) {
        response_.stop_reason = StopReason::kCancelled;
        return;
      }
      if (has_deadline_ && --deadline_countdown <= 0) {
        deadline_countdown = kDeadlineCheckStridePops;
        if (Now() >= deadline_) {
          response_.stop_reason = StopReason::kDeadline;
          return;
        }
      }
      if (options_.max_pops > 0 &&
          response_.counters.pops >= options_.max_pops) {
        response_.stop_reason = StopReason::kMaxPops;
        return;
      }
      const int kw = SelectKeyword();
      if (kw < 0) {  // Every frontier drained.
        response_.stop_reason = StopReason::kExhausted;
        return;
      }
      BestPathIterator& frontier = *iterators_[static_cast<size_t>(kw)];
      const NtdId popped = frontier.Next();
      assert(popped != kInvalidNtd);
      ++response_.counters.pops;
      if (options_.pop_fn != nullptr) {
        options_.pop_fn(options_.pop_ctx, static_cast<size_t>(kw), frontier,
                        popped);
      }
      const NodeId node = frontier.ntd(popped).node;
      const int32_t row = meetings_->Add(node, static_cast<size_t>(kw), popped);

      if (meetings_->MetAll(row)) {
        if (options_.trace != nullptr) {
          options_.trace->Record(
              obs::TraceEventKind::kKeywordHit, node, -1,
              static_cast<double>(response_.counters.results));
        }
        generate_timer_.Start();
        GenerateCandidates(node, row, static_cast<size_t>(kw), popped);
        generate_timer_.Stop();
      }

      if (results_.full() && KthBeatsBound()) {
        response_.stop_reason = StopReason::kBound;
        return;
      }
    }
  }

  /// Enumerates NTDset cross products with the fresh NTD pinned for its
  /// keyword (Algorithm 3 lines 15-19). The pop counts as a combo overflow
  /// when max_combos_per_pop leaves a combination of its product unvisited.
  void GenerateCandidates(NodeId root, int32_t row, size_t fresh_kw,
                          NtdId fresh_ntd) {
    if (options_.max_combos_per_pop <= 0) {
      ++response_.counters.combo_overflows;
      return;
    }
    chosen_[fresh_kw] = fresh_ntd;
    chosen_pos_[fresh_kw] = 0;
    memo_ready_ = PrepareMemo(root, row, fresh_kw, fresh_ntd);
    int64_t combos = 0;
    combos_cut_ = false;
    const BestPathIterator& fresh = *iterators_[fresh_kw];
    if (fresh.uses_time_masks()) {
      EnumerateCombos(root, row, fresh_kw, 0,
                      fresh.TimeAs<TimeMask>(fresh_ntd), &combos);
    } else {
      EnumerateCombos(root, row, fresh_kw, 0,
                      fresh.TimeAs<IntervalSet>(fresh_ntd), &combos);
    }
    if (combos_cut_) ++response_.counters.combo_overflows;
  }

  /// Builds the pop's path table when its cross product reaches
  /// kMemoMinCombos. Returns whether the memo serves this pop.
  bool PrepareMemo(NodeId root, int32_t row, size_t fresh_kw,
                   NtdId fresh_ntd) {
    if (m_ < 2 || m_ > CandidateMemo::kMaxKeywords) return false;
    int64_t product = 1;
    for (size_t kw = 0; kw < m_ && product < kMemoMinCombos; ++kw) {
      if (kw == fresh_kw) continue;
      int64_t length = 0;
      for (int32_t link = meetings_->First(row, kw); link >= 0;
           link = meetings_->Next(link)) {
        ++length;
      }
      product *= length;
    }
    if (product < kMemoMinCombos) return false;
    if (memo_ == nullptr) memo_ = CandidateMemoPool::Acquire();
    memo_->Reset(root, &match_lists_);
    for (size_t kw = 0; kw < m_; ++kw) {
      if (kw == fresh_kw) {
        AddMemoPath(kw, fresh_ntd);
        continue;
      }
      for (int32_t link = meetings_->First(row, kw); link >= 0;
           link = meetings_->Next(link)) {
        AddMemoPath(kw, meetings_->ntd(link));
      }
    }
    return memo_->Seal();
  }

  /// Adds NTD `id`'s path to the memo: each NTD on its parent chain names
  /// the next node toward the source and, in its via_edge, the edge into
  /// that node.
  void AddMemoPath(size_t kw, NtdId id) {
    const BestPathIterator& frontier = *iterators_[kw];
    memo_->BeginPath(kw);
    for (const Ntd* cur = &frontier.ntd(id); cur->parent != kInvalidNtd;) {
      const EdgeId in_edge = cur->via_edge;
      cur = &frontier.ntd(cur->parent);
      memo_->AddStep(cur->node, in_edge);
    }
  }

  /// `Time` is the frontiers' time representation (all keywords share the
  /// graph, hence the representation). Returns as soon as `*combos`
  /// reaches the cap; every depth then records in combos_cut_ whether its
  /// own list still had an unvisited NTD.
  template <typename Time>
  void EnumerateCombos(NodeId root, int32_t row, size_t fresh_kw, size_t kw,
                       const Time& common, int64_t* combos) {
    if (kw == m_) {
      ++(*combos);
      EmitCandidate(root);
      return;
    }
    if (kw == fresh_kw) {
      EnumerateCombos(root, row, fresh_kw, kw + 1, common, combos);
      return;
    }
    // Each depth narrows into its own reused set; `common` is the fresh
    // NTD's time or a shallower depth's set, never this one.
    Time& narrowed = ComboTime<Time>(kw);
    const BestPathIterator& frontier = *iterators_[kw];
    int32_t pos = 0;
    for (int32_t link = meetings_->First(row, kw); link >= 0;
         link = meetings_->Next(link), ++pos) {
      const NtdId ntd_id = meetings_->ntd(link);
      if constexpr (std::is_same_v<Time, TimeMask>) {
        narrowed = common & frontier.TimeAs<TimeMask>(ntd_id);
      } else {
        narrowed.AssignIntersectionOf(common,
                                      frontier.TimeAs<IntervalSet>(ntd_id));
      }
      ++engine_interval_ops_;
      if (narrowed.IsEmpty()) {
        // Validity pre-check (Algorithm 3 line 17): the chosen paths never
        // coexist; every completion would be invalid too.
        ++response_.counters.candidates;
        ++response_.counters.invalid_time;
        continue;
      }
      chosen_[kw] = ntd_id;
      chosen_pos_[kw] = pos;
      EnumerateCombos(root, row, fresh_kw, kw + 1, narrowed, combos);
      if (*combos >= options_.max_combos_per_pop) {
        combos_cut_ |= meetings_->Next(link) >= 0;
        return;
      }
    }
  }

  /// The reused narrowed-time buffer of depth `kw`.
  template <typename Time>
  Time& ComboTime(size_t kw) {
    if constexpr (std::is_same_v<Time, TimeMask>) {
      return combo_masks_[kw];
    } else {
      return combo_times_[kw];
    }
  }

  /// Assembles the combination in chosen_, or replays the verdict its
  /// core got earlier in this pop. The exact time is recomputed from the
  /// reduced tree's elements, and only for a tree not seen before.
  void EmitCandidate(NodeId root) {
    ++response_.counters.candidates;
    if (memo_ready_ && EmitFromMemo(root)) return;
    path_edges_.clear();
    for (size_t kw = 0; kw < m_; ++kw) {
      iterators_[kw]->PathEdgesInto(chosen_[kw], &path_edges_);
    }
    SetCandidateMatches();
    Settle(root, assembler_.Assemble(root, &path_edges_, candidate_matches_,
                                     &seen_));
  }

  /// The memo path of EmitCandidate (docs/algorithms.md, "Redundant
  /// keyword paths"). A combination with redundant keywords whose path
  /// union is a tree is keyed on (redundant keywords, core choices). A hit
  /// replays the key's verdict; a miss assembles the core alone and, when
  /// the redundant keywords' coverers outlast the core's peel, settles the
  /// candidate on the core's verdict and stores it. Returns false when the
  /// combination must be assembled whole.
  bool EmitFromMemo(NodeId root) {
    const int32_t* choice = chosen_pos_.data();
    const uint64_t redundant = memo_->Redundant(choice);
    // Without a redundant keyword the core is the whole combination, which
    // a pop enumerates once: nothing to reuse.
    if (redundant == 0) return false;
    const uint64_t key = memo_->Key(redundant, choice);
    const MemoVerdict* known = memo_->Find(key);
    if (known != nullptr && *known == MemoVerdict::kAssemble) return false;
    if (!memo_->FormsTree(choice)) return false;
    if (known != nullptr) {
      ++response_.counters.memo_hits;
      CountVerdict(root, *known);
      return true;
    }
    path_edges_.clear();
    memo_->CoreEdgesInto(redundant, choice, &path_edges_);
    SetCandidateMatches();
    const CandidateRejection why =
        assembler_.Assemble(root, &path_edges_, candidate_matches_, &seen_);
    if (why == CandidateRejection::kNotATree ||
        !assembler_.RedundantCoverHolds(redundant)) {
      memo_->Insert(key, MemoVerdict::kAssemble);
      return false;
    }
    memo_->Insert(key, Settle(root, why));
    return true;
  }

  /// The chosen paths' sources, the designated matches.
  void SetCandidateMatches() {
    for (size_t kw = 0; kw < m_; ++kw) {
      candidate_matches_[kw] = iterators_[kw]->source_of(chosen_[kw]);
    }
  }

  /// Counts an assembled candidate's verdict and, on acceptance, records
  /// the result. Returns what a later candidate with the same reduced tree
  /// would be: an accepted tree makes it a duplicate.
  MemoVerdict Settle(NodeId root, CandidateRejection why) {
    switch (why) {
      case CandidateRejection::kNotATree:
        ++response_.counters.invalid_structure;
        return MemoVerdict::kAssemble;
      case CandidateRejection::kRootReducible:
        CountVerdict(root, MemoVerdict::kRootReducible);
        return MemoVerdict::kRootReducible;
      case CandidateRejection::kDuplicate:
        CountVerdict(root, MemoVerdict::kDuplicate);
        return MemoVerdict::kDuplicate;
      case CandidateRejection::kEmptyTime:
        CountVerdict(root, MemoVerdict::kEmptyTime);
        return MemoVerdict::kEmptyTime;
      case CandidateRejection::kAccepted:
        break;
    }
    // Final predicate check; skippable when element pruning was exact (§5).
    const IntervalSet& time = assembler_.time();
    if (query_.predicate != nullptr && !query_.predicate->PruningIsExact() &&
        !query_.predicate->EvalResultTime(time)) {
      CountVerdict(root, MemoVerdict::kPredicateRejected);
      return MemoVerdict::kPredicateRejected;
    }
    // seen_'s elements never move, so the top-k set ranks by this copy of
    // the signature. The tree is built only if it enters the top k.
    const std::string* signature = &*seen_.insert(assembler_.signature()).first;
    ++response_.counters.results;
    const ScoreKey score =
        MakeScoreKey(query_.ranking, assembler_.weight(), time);
    if (ResultTree* slot = results_.Offer(score, signature)) {
      assembler_.Build(slot);
    }
    return MemoVerdict::kDuplicate;
  }

  /// Counts a candidate rejected with `verdict`.
  void CountVerdict(NodeId root, MemoVerdict verdict) {
    switch (verdict) {
      case MemoVerdict::kDuplicate:
        ++response_.counters.duplicates;
        if (options_.trace != nullptr) {
          options_.trace->Record(obs::TraceEventKind::kDedupHit, root, -1);
        }
        return;
      case MemoVerdict::kRootReducible:
        ++response_.counters.root_reducible;
        return;
      case MemoVerdict::kEmptyTime:
        ++response_.counters.invalid_time;
        return;
      case MemoVerdict::kPredicateRejected:
        ++response_.counters.predicate_rejected;
        return;
      case MemoVerdict::kAssemble:
        break;
    }
    assert(false && "kAssemble is not a verdict");
  }

  /// §4.2 stop test: does the kth best found result already beat the upper
  /// bound on everything unseen?
  bool KthBeatsBound() {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    // Peek each keyword frontier; sources are settled eagerly, so the
    // peeks are the per-keyword best next NTD scores.
    double best_top = -kInf;   // max over keyword queue tops.
    double worst_top = kInf;   // min over keyword queue tops.
    bool any = false;
    for (size_t kw = 0; kw < m_; ++kw) {
      const ScoreKey* front = iterators_[kw]->PeekScore();
      if (front == nullptr) continue;
      any = true;
      best_top = std::max(best_top, (*front)[0]);
      worst_top = std::min(worst_top, (*front)[0]);
    }
    if (!any) return true;  // Exhausted: everything has been seen.

    // Accurate bound (Propositions 4.1-4.3): an unseen result is emitted at
    // the future pop of its last NTD, whose score is at most its queue's
    // top, hence at most the best top.
    const double accurate = best_top;
    double empirical;
    double average;
    if (query_.ranking.primary() == RankFactor::kRelevance) {
      // §4.2 relevance bounds, derived in the paper's relevance space
      // r = 1/weight and transformed into the engine's score space
      // s = -weight (so s = -1/r; the map is monotone but NOT linear).
      //
      //   accurate:  r_acc = 1/d        with d = -best_top, the weight of
      //                                 the cheapest queue top;
      //   empirical: r_emp = 1/(m·d)    ("an unseen result ~ m paths of
      //                                 frontier cost d");
      //   average:   (r_acc + r_emp)/2 = (m+1)/(2·m·d).
      //
      // Mapping back through s = -1/r gives s_emp = -m·d and
      // s_avg = -2·m·d/(m+1). The average MUST be taken in relevance space:
      // averaging the negated weights instead — (-d + -m·d)/2 — lands at
      // -d·(m+1)/2, which for m >= 2 is below the true midpoint, so the stop
      // test fired too early and could silently return a non-top-k tree
      // (see termination_bound_test.cc for a 2-keyword graph where the
      // returned top-1 differs).
      const double m = static_cast<double>(m_);
      const double d = -best_top;
      if (d <= 0) {
        // Zero-weight frontier: 1/(m·d) is undefined; every relaxation
        // collapses onto the accurate bound.
        empirical = accurate;
        average = accurate;
      } else {
        empirical = -(m * d);
        average = -(2.0 * m * d) / (m + 1.0);
      }
    } else {
      // Temporal primaries are affine in the score, so bounds live directly
      // in score space: empirical = the worst queue top (§4.2's "smallest
      // top-of-queue end time / duration") and the midpoint commutes.
      empirical = worst_top;
      average = (accurate + empirical) / 2.0;
    }
    double bound = accurate;
    switch (options_.bound) {
      case UpperBoundKind::kAccurate:
        bound = accurate;
        break;
      case UpperBoundKind::kEmpirical:
        bound = empirical;
        break;
      case UpperBoundKind::kAverage:
        bound = average;
        break;
    }
    // The k-th best tree's primary score is the k-th best primary score.
    const double kth = results_.worst()[0];
    return kth >= bound;
  }

  void Finalize() {
    response_.truncated = response_.stop_reason != StopReason::kExhausted &&
                          response_.stop_reason != StopReason::kBound;
    response_.results = results_.TakeRanked(query_.ranking);

    SearchCounters& c = response_.counters;
    c.seconds_match = match_timer_.seconds();
    c.seconds_filter = filter_timer_.seconds();
    c.seconds_generate = generate_timer_.seconds();
    // Frontier build + main loop, minus the generation nested inside.
    c.seconds_expand =
        std::max(0.0, expand_timer_.seconds() - c.seconds_generate);
    // The observability profile rides the same pass. Finalize() runs on
    // EVERY stop path (exhausted / bound / max_pops / deadline /
    // cancelled), so a killed query still reports where its budget went.
    obs::SearchStats& s = response_.stats;
    s.interval_ops = engine_interval_ops_;
    int64_t pushed_nodes_sum = 0;
    int64_t active_ntds_sum = 0;
    for (const auto& frontier : iterators_) {
      const IteratorStats& is = frontier->stats();
      c.useless_pops += is.useless_pops;
      c.ntds_created += frontier->num_ntds();
      c.edges_scanned += is.edges_scanned;
      c.subsumption_skips += is.subsumption_skips;
      c.subsumption_evictions += is.subsumption_evictions;
      s.prunes += is.prunes;
      s.interval_ops += is.interval_ops;
      s.heap_high_water = std::max(s.heap_high_water, is.heap_high_water);
      for (int32_t origin = 0; origin < frontier->num_sources(); ++origin) {
        if (frontier->num_ntds(origin) > 1) {
          // The paper's "average number of NTDs associated with each node
          // in the priority queue", per source: created (queued) NTDs over
          // the nodes the source's expansion actually processed. Sources
          // that never expanded past themselves (common with huge match
          // sets and an early bound stop) are excluded — they would dilute
          // the ratio toward 1.
          active_ntds_sum += frontier->num_ntds(origin);
          pushed_nodes_sum += frontier->nodes_reached(origin);
        }
      }
    }
    c.nodes_visited = meetings_->reached();
    if (options_.report_expanded_nodes) {
      response_.expanded_nodes = meetings_->ReachedNodes();
    }
    c.avg_ntds_per_node =
        pushed_nodes_sum > 0
            ? static_cast<double>(active_ntds_sum) /
                  static_cast<double>(pushed_nodes_sum)
            : 0.0;

    EngineMetrics& gm = EngineMetrics::Get();
    gm.queries->Increment();
    gm.pops->Increment(c.pops);
    gm.ntds_created->Increment(c.ntds_created);
    gm.results->Increment(c.results);
    switch (response_.stop_reason) {
      case StopReason::kExhausted:
        gm.stop_exhausted->Increment();
        break;
      case StopReason::kBound:
        gm.stop_bound->Increment();
        break;
      case StopReason::kMaxPops:
        gm.stop_max_pops->Increment();
        break;
      case StopReason::kDeadline:
        gm.stop_deadline->Increment();
        break;
      case StopReason::kCancelled:
        gm.stop_cancelled->Increment();
        break;
    }
    gm.heap_high_water->Max(s.heap_high_water);
    gm.query_micros->Observe(std::llround(
        (c.seconds_match + c.seconds_filter + c.seconds_expand +
         c.seconds_generate) *
        1e6));
    gm.pops_per_query->Observe(c.pops);
  }

 public:
  Stopwatch match_timer_;  // Started by SearchEngine during match lookup.

 private:
  const graph::GraphView graph_;
  const Query& query_;
  const SearchOptions options_;
  const size_t m_;

  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;

  std::vector<std::vector<NodeId>> match_lists_;

  // Candidate generation. Every buffer lives for the whole query, so a
  // warm candidate allocates only if it becomes a result: its seen_ entry,
  // and its tree if it enters the top k.
  CandidateAssembler assembler_;  ///< Covers by the filtered match_lists_.
  std::vector<NtdId> chosen_;  ///< NTD per keyword, of that keyword's frontier.
  std::vector<int32_t> chosen_pos_;  ///< chosen_[kw]'s index in its list.
  std::vector<IntervalSet> combo_times_;  ///< Narrowed time per depth.
  std::vector<TimeMask> combo_masks_;     ///< The same, on mask timelines.
  std::vector<EdgeId> path_edges_;        ///< Concatenated chosen paths.
  std::vector<NodeId> candidate_matches_;  ///< Chosen paths' sources.
  SignatureSet seen_;  ///< Accepted trees.
  bool combos_cut_ = false;  ///< The cap cut the current pop's product.
  CandidateMemoPool::Handle memo_;  ///< Acquired at the first memo pop.
  bool memo_ready_ = false;  ///< memo_ serves the current pop.

  /// One frontier per keyword over its filtered match list, built by
  /// CreateIterators().
  std::vector<std::optional<BestPathIterator>> iterators_;
  int rr_cursor_ = 0;

  MeetingTablePool::Handle meetings_;  ///< Per-(node, keyword) pop lists.
  TopKResults results_{options_.k};  ///< The k best accepted trees.

  Stopwatch filter_timer_, expand_timer_, generate_timer_;
  int64_t engine_interval_ops_ = 0;  ///< Intersections in combo enumeration.
  SearchResponse response_;
};

}  // namespace

SearchEngine::SearchEngine(graph::GraphView graph,
                           const graph::InvertedIndex* index)
    : graph_(graph), index_(index) {}

Result<SearchResponse> SearchEngine::Search(const Query& query,
                                            const SearchOptions& options) const {
  TGKS_RETURN_IF_ERROR(query.Validate());
  if (index_ == nullptr) {
    return Status::InvalidArgument(
        "engine has no inverted index; use SearchWithMatches()");
  }
  Stopwatch match_timer;
  match_timer.Start();
  std::vector<std::vector<NodeId>> matches;
  matches.reserve(query.keywords.size());
  for (const std::string& keyword : query.keywords) {
    const auto posting = index_->Lookup(keyword);
    matches.emplace_back(posting.begin(), posting.end());
    // Incremental index maintenance (docs/ingest.md): delta postings are
    // merged at match-materialization time. Delta ids all exceed base ids,
    // so the append preserves sorted-unique form — exactly what a rebuilt
    // index would have returned.
    const auto extra = graph_.DeltaPostings(keyword);
    matches.back().insert(matches.back().end(), extra.begin(), extra.end());
  }
  match_timer.Stop();

  Runner runner(graph_, query, std::move(matches), options);
  runner.match_timer_ = match_timer;
  return runner.Run();
}

Result<SearchResponse> SearchEngine::SearchWithMatches(
    const Query& query, const std::vector<std::vector<NodeId>>& matches,
    const SearchOptions& options) const {
  TGKS_RETURN_IF_ERROR(query.Validate());
  if (matches.size() != query.keywords.size()) {
    return Status::InvalidArgument("one match list per keyword required");
  }
  for (const auto& list : matches) {
    for (const NodeId n : list) {
      if (n < 0 || n >= graph_.num_nodes()) {
        return Status::InvalidArgument("match node out of range");
      }
    }
  }
  Runner runner(graph_, query, matches, options);
  return runner.Run();
}

}  // namespace tgks::search
