#include "graph/serialization.h"

#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "graph/graph_builder.h"
#include "graph/reachability_index.h"

namespace tgks::graph {

using temporal::Interval;
using temporal::IntervalSet;
using temporal::TimePoint;

Result<IntervalSet> ParseValidity(std::string_view text,
                                  TimePoint timeline_length) {
  if (text.empty() || text[0] != '@') {
    return Status::Corruption("validity literal must start with '@'");
  }
  text.remove_prefix(1);
  if (text == "*") return IntervalSet::All(timeline_length);
  std::vector<Interval> intervals;
  while (!text.empty()) {
    if (text[0] != '[') {
      return Status::Corruption("expected '[' in validity literal");
    }
    const size_t comma = text.find(',');
    const size_t close = text.find(']');
    if (comma == std::string_view::npos || close == std::string_view::npos ||
        comma > close) {
      return Status::Corruption("malformed interval in validity literal");
    }
    int64_t start = 0, end = 0;
    if (!ParseInt64(text.substr(1, comma - 1), &start) ||
        !ParseInt64(text.substr(comma + 1, close - comma - 1), &end)) {
      return Status::Corruption("non-numeric bound in validity literal");
    }
    if (start > end) {
      return Status::Corruption("empty interval in validity literal");
    }
    intervals.emplace_back(static_cast<TimePoint>(start),
                           static_cast<TimePoint>(end));
    text.remove_prefix(close + 1);
  }
  if (intervals.empty()) {
    return Status::Corruption("validity literal has no intervals");
  }
  return IntervalSet(std::move(intervals));
}

std::string FormatValidity(const IntervalSet& set,
                           TimePoint timeline_length) {
  if (set == IntervalSet::All(timeline_length)) return "@*";
  std::ostringstream os;
  os << '@';
  for (const Interval& iv : set.intervals()) {
    os << '[' << iv.start << ',' << iv.end << ']';
  }
  return os.str();
}

Status SaveGraph(const TemporalGraph& graph, std::ostream& out) {
  const TimePoint horizon = graph.timeline_length();
  out << "tgf 1\n";
  out << "timeline " << horizon << "\n";
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    const Node& node = graph.node(n);
    out << "node " << n << ' ' << node.weight << ' '
        << FormatValidity(node.validity, horizon) << ' ' << node.label << "\n";
  }
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const Edge& edge = graph.edge(e);
    out << "edge " << edge.src << ' ' << edge.dst << ' ' << edge.weight << ' '
        << FormatValidity(edge.validity, horizon) << "\n";
  }
  if (!out) return Status::IOError("write failed");
  return Status::OK();
}

Status SaveGraphToFile(const TemporalGraph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  return SaveGraph(graph, out);
}

namespace {

Status CorruptAt(int line_number, const std::string& why) {
  std::ostringstream msg;
  msg << "line " << line_number << ": " << why;
  return Status::Corruption(msg.str());
}

}  // namespace

Result<TemporalGraph> LoadGraph(std::istream& in) {
  std::string line;
  int line_number = 0;

  auto next_meaningful_line = [&](std::string* out_line) {
    while (std::getline(in, line)) {
      ++line_number;
      const std::string_view stripped = StripWhitespace(line);
      if (stripped.empty() || stripped[0] == '#') continue;
      *out_line = std::string(stripped);
      return true;
    }
    return false;
  };

  std::string header;
  if (!next_meaningful_line(&header) || header != "tgf 1") {
    return Status::Corruption("missing 'tgf 1' header");
  }
  std::string timeline_line;
  if (!next_meaningful_line(&timeline_line)) {
    return Status::Corruption("missing 'timeline' line");
  }
  const auto timeline_fields = Split(timeline_line, ' ');
  int64_t horizon = 0;
  if (timeline_fields.size() != 2 || timeline_fields[0] != "timeline" ||
      !ParseInt64(timeline_fields[1], &horizon) || horizon <= 0 ||
      horizon > temporal::kMaxTimelineLength) {
    return CorruptAt(line_number, "malformed 'timeline' line");
  }

  GraphBuilder builder(static_cast<TimePoint>(horizon),
                       ValidityPolicy::kStrict);
  NodeId expected_node = 0;
  std::string record;
  while (next_meaningful_line(&record)) {
    const auto fields = Split(record, ' ');
    if (fields[0] == "node") {
      if (fields.size() < 4) return CorruptAt(line_number, "short node line");
      int64_t id = 0;
      double weight = 0;
      if (!ParseInt64(fields[1], &id) || id != expected_node) {
        return CorruptAt(line_number, "node ids must be dense and ascending");
      }
      if (!ParseDouble(fields[2], &weight)) {
        return CorruptAt(line_number, "bad node weight");
      }
      auto validity =
          ParseValidity(fields[3], static_cast<TimePoint>(horizon));
      if (!validity.ok()) return CorruptAt(line_number, "bad node validity");
      // The label is everything after the validity field, spaces included.
      std::vector<std::string> label_parts(fields.begin() + 4, fields.end());
      builder.AddNode(Join(label_parts, " "), std::move(validity).value(),
                      weight);
      ++expected_node;
    } else if (fields[0] == "edge") {
      if (fields.size() != 5) return CorruptAt(line_number, "bad edge line");
      int64_t src = 0, dst = 0;
      double weight = 0;
      if (!ParseInt64(fields[1], &src) || !ParseInt64(fields[2], &dst) ||
          !ParseDouble(fields[3], &weight)) {
        return CorruptAt(line_number, "bad edge fields");
      }
      auto validity =
          ParseValidity(fields[4], static_cast<TimePoint>(horizon));
      if (!validity.ok()) return CorruptAt(line_number, "bad edge validity");
      builder.AddEdge(static_cast<NodeId>(src), static_cast<NodeId>(dst),
                      std::move(validity).value(), weight);
    } else {
      return CorruptAt(line_number, "unknown record '" + fields[0] + "'");
    }
  }
  return builder.Build();
}

Result<TemporalGraph> LoadGraphFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  return LoadGraph(in);
}

// ---------------------------------------------------------------------------
// Binary format.

namespace {

constexpr char kBinaryMagic[4] = {'T', 'G', 'K', 'B'};
// Version 2 appended the reachability labeling blob; version 3 added
// distance arrays to it and version 4 dropped them again
// (docs/file_formats.md). Version 1 to 3 files are still read: their
// labeling blob is ignored and the index is built on first use, exactly as
// for a graph that never had a blob.
constexpr uint32_t kBinaryVersion = 4;
// Caps that keep a corrupt length field from driving giant allocations.
constexpr uint32_t kMaxBinaryCount = 1u << 28;
constexpr uint32_t kMaxLabelLength = 1u << 20;

void WriteU32(std::ostream& out, uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out.write(bytes, 4);
}

void WriteI32(std::ostream& out, int32_t v) {
  WriteU32(out, static_cast<uint32_t>(v));
}

void WriteF64(std::ostream& out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>((bits >> (8 * i)) & 0xFF);
  }
  out.write(bytes, 8);
}

void WriteValidity(std::ostream& out, const IntervalSet& set) {
  WriteU32(out, static_cast<uint32_t>(set.intervals().size()));
  for (const Interval& iv : set.intervals()) {
    WriteI32(out, iv.start);
    WriteI32(out, iv.end);
  }
}

bool ReadU32(std::istream& in, uint32_t* v) {
  char bytes[4];
  if (!in.read(bytes, 4)) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[i]))
          << (8 * i);
  }
  return true;
}

bool ReadI32(std::istream& in, int32_t* v) {
  uint32_t raw;
  if (!ReadU32(in, &raw)) return false;
  *v = static_cast<int32_t>(raw);
  return true;
}

bool ReadF64(std::istream& in, double* v) {
  char bytes[8];
  if (!in.read(bytes, 8)) return false;
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[i]))
            << (8 * i);
  }
  std::memcpy(v, &bits, sizeof(*v));
  return true;
}

Result<IntervalSet> ReadValidity(std::istream& in) {
  uint32_t count;
  if (!ReadU32(in, &count) || count > kMaxBinaryCount) {
    return Status::Corruption("bad interval count");
  }
  std::vector<Interval> intervals;
  intervals.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    int32_t start, end;
    if (!ReadI32(in, &start) || !ReadI32(in, &end)) {
      return Status::Corruption("truncated interval");
    }
    if (start > end) return Status::Corruption("empty stored interval");
    intervals.emplace_back(start, end);
  }
  return IntervalSet(std::move(intervals));
}

}  // namespace

/// Friend of ReachabilityIndex and TemporalGraph: persists and restores the
/// labeling blob of binary format version 4. Writing is a plain field dump;
/// reading bounds every count by the graph it belongs to before allocating,
/// validates every index-bearing field, and installs the parsed labels verbatim
/// into the loaded graph's still-empty lazy cell, so a load builds nothing
/// and the save -> load -> save byte-identity is trivial.
class ReachabilityIndexSerializer {
 public:
  static void Write(const ReachabilityIndex& index, std::ostream& out) {
    WriteU32(out, static_cast<uint32_t>(index.epochs_.size()));
    for (const auto& epoch : index.epochs_) {
      WriteI32(out, epoch.begin);
      WriteI32(out, epoch.end);
      WriteU32(out, static_cast<uint32_t>(epoch.num_sccs));
      WriteI32Vector(out, epoch.scc_of);
      WriteI32Vector(out, epoch.dag_offsets);
      WriteI32Vector(out, epoch.dag_edges);
      WriteI32Vector(out, epoch.chain_of);
      WriteI32Vector(out, epoch.chain_pos);
      WriteU32(out, static_cast<uint32_t>(epoch.num_chains));
      WriteI32Vector(out, epoch.out_offsets);
      WriteLabels(out, epoch.out_labels);
      WriteBytes(out, epoch.out_complete);
      WriteI32Vector(out, epoch.in_offsets);
      WriteLabels(out, epoch.in_labels);
      WriteBytes(out, epoch.in_complete);
    }
  }

  static Status Read(std::istream& in, TemporalGraph* graph) {
    auto index = std::make_shared<ReachabilityIndex>();
    index->timeline_length_ = graph->timeline_length();
    index->num_nodes_ = graph->num_nodes();
    uint32_t epoch_count;
    if (!ReadU32(in, &epoch_count) || epoch_count == 0 ||
        epoch_count > static_cast<uint32_t>(graph->timeline_length())) {
      return Status::Corruption("bad reachability epoch count");
    }
    index->epoch_of_.assign(static_cast<size_t>(graph->timeline_length()), 0);
    TimePoint expected_begin = 0;
    const auto num_nodes = static_cast<size_t>(graph->num_nodes());
    // Every count below is bounded by the graph before anything is sized
    // by it: SCCs partition the alive nodes, condensed edges are deduped
    // alive edges, and the build truncates every label to kMaxLabelEntries.
    const auto max_dag_edges = static_cast<size_t>(graph->num_edges());
    constexpr int32_t kMaxSlice = ReachabilityIndex::kMaxLabelEntries;
    for (uint32_t i = 0; i < epoch_count; ++i) {
      ReachabilityIndex::Epoch epoch;
      uint32_t num_sccs, num_chains;
      if (!ReadI32(in, &epoch.begin) || !ReadI32(in, &epoch.end) ||
          !ReadU32(in, &num_sccs) || num_sccs > num_nodes ||
          epoch.begin != expected_begin || epoch.end < epoch.begin ||
          epoch.end >= graph->timeline_length()) {
        return Status::Corruption("bad reachability epoch header");
      }
      epoch.num_sccs = static_cast<int32_t>(num_sccs);
      const auto sccs = static_cast<size_t>(num_sccs);
      if (!ReadI32Vector(in, num_nodes, &epoch.scc_of) ||
          !ReadI32Vector(in, sccs + 1, &epoch.dag_offsets)) {
        return Status::Corruption("bad reachability SCC map");
      }
      if (!ValidOffsets(epoch.dag_offsets, max_dag_edges, num_sccs) ||
          !ReadI32Vector(in,
                         static_cast<size_t>(epoch.dag_offsets.back()),
                         &epoch.dag_edges) ||
          !ReadI32Vector(in, sccs, &epoch.chain_of) ||
          !ReadI32Vector(in, sccs, &epoch.chain_pos) ||
          !ReadU32(in, &num_chains) || num_chains > num_sccs) {
        return Status::Corruption("bad reachability DAG/chain block");
      }
      epoch.num_chains = static_cast<int32_t>(num_chains);
      const size_t max_labels = sccs * static_cast<size_t>(kMaxSlice);
      if (!ReadI32Vector(in, sccs + 1, &epoch.out_offsets) ||
          !ValidOffsets(epoch.out_offsets, max_labels, kMaxSlice) ||
          !ReadLabels(in, static_cast<size_t>(epoch.out_offsets.back()),
                      &epoch.out_labels) ||
          !ReadBytes(in, sccs, &epoch.out_complete) ||
          !ReadI32Vector(in, sccs + 1, &epoch.in_offsets) ||
          !ValidOffsets(epoch.in_offsets, max_labels, kMaxSlice) ||
          !ReadLabels(in, static_cast<size_t>(epoch.in_offsets.back()),
                      &epoch.in_labels) ||
          !ReadBytes(in, sccs, &epoch.in_complete)) {
        return Status::Corruption("bad reachability label block");
      }
      for (const int32_t c : epoch.scc_of) {
        if (c < -1 || c >= epoch.num_sccs) {
          return Status::Corruption("reachability SCC id out of range");
        }
      }
      for (const int32_t d : epoch.dag_edges) {
        if (d < 0 || d >= epoch.num_sccs) {
          return Status::Corruption("reachability DAG edge out of range");
        }
      }
      for (size_t c = 0; c < sccs; ++c) {
        if (epoch.chain_of[c] < 0 || epoch.chain_of[c] >= epoch.num_chains ||
            epoch.chain_pos[c] < 0) {
          return Status::Corruption("reachability chain entry out of range");
        }
      }
      const auto id = static_cast<int32_t>(index->epochs_.size());
      for (TimePoint t = epoch.begin; t <= epoch.end; ++t) {
        index->epoch_of_[static_cast<size_t>(t)] = id;
      }
      expected_begin = epoch.end + 1;
      index->epochs_.push_back(std::move(epoch));
    }
    if (expected_begin != graph->timeline_length()) {
      return Status::Corruption("reachability epochs do not cover timeline");
    }
    ReachabilityIndex::BuildStats& stats = index->stats_;
    stats.epochs = static_cast<int64_t>(index->epochs_.size());
    for (const auto& epoch : index->epochs_) {
      stats.sccs += epoch.num_sccs;
      stats.dag_edges += static_cast<int64_t>(epoch.dag_edges.size());
      stats.chains += epoch.num_chains;
      stats.label_entries += static_cast<int64_t>(epoch.out_labels.size()) +
                             static_cast<int64_t>(epoch.in_labels.size());
    }
    stats.label_bytes =
        stats.label_entries *
        static_cast<int64_t>(sizeof(ReachabilityIndex::LabelEntry));
    // The graph was built a moment ago and never probed, so this call_once
    // is the cell's first: reachability() returns these labels from now on.
    TemporalGraph::ReachabilityCell& cell = *graph->reach_;
    std::call_once(cell.once, [&] { cell.index = std::move(index); });
    return Status::OK();
  }

 private:
  static void WriteI32Vector(std::ostream& out,
                             const std::vector<int32_t>& v) {
    for (const int32_t x : v) WriteI32(out, x);
  }

  static void WriteLabels(
      std::ostream& out,
      const std::vector<ReachabilityIndex::LabelEntry>& labels) {
    for (const auto& entry : labels) {
      WriteI32(out, entry.chain);
      WriteI32(out, entry.pos);
    }
  }

  static void WriteBytes(std::ostream& out, const std::vector<uint8_t>& v) {
    out.write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(v.size()));
  }

  static bool ReadI32Vector(std::istream& in, size_t count,
                            std::vector<int32_t>* v) {
    if (count > kMaxBinaryCount) return false;
    v->resize(count);
    for (size_t i = 0; i < count; ++i) {
      if (!ReadI32(in, &(*v)[i])) return false;
    }
    return true;
  }

  static bool ReadLabels(std::istream& in, size_t count,
                         std::vector<ReachabilityIndex::LabelEntry>* v) {
    if (count > kMaxBinaryCount) return false;
    v->resize(count);
    for (size_t i = 0; i < count; ++i) {
      if (!ReadI32(in, &(*v)[i].chain) || !ReadI32(in, &(*v)[i].pos)) {
        return false;
      }
    }
    return true;
  }

  static bool ReadBytes(std::istream& in, size_t count,
                        std::vector<uint8_t>* v) {
    if (count > kMaxBinaryCount) return false;
    v->resize(count);
    return count == 0 ||
           static_cast<bool>(in.read(reinterpret_cast<char*>(v->data()),
                                     static_cast<std::streamsize>(count)));
  }

  /// Offsets must start at 0 and be non-decreasing (CSR invariant), give
  /// no slot more than `max_slice` entries and end at most at `max_total`.
  static bool ValidOffsets(const std::vector<int32_t>& offsets,
                           size_t max_total, uint32_t max_slice) {
    if (offsets.empty() || offsets.front() != 0) return false;
    for (size_t i = 1; i < offsets.size(); ++i) {
      if (offsets[i] < offsets[i - 1] ||
          static_cast<uint32_t>(offsets[i] - offsets[i - 1]) > max_slice) {
        return false;
      }
    }
    return static_cast<size_t>(offsets.back()) <= max_total;
  }
};

Status SaveGraphBinary(const TemporalGraph& graph, std::ostream& out) {
  out.write(kBinaryMagic, 4);
  WriteU32(out, kBinaryVersion);
  WriteU32(out, static_cast<uint32_t>(graph.timeline_length()));
  WriteU32(out, static_cast<uint32_t>(graph.num_nodes()));
  WriteU32(out, static_cast<uint32_t>(graph.num_edges()));
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    const Node& node = graph.node(n);
    WriteF64(out, node.weight);
    WriteU32(out, static_cast<uint32_t>(node.label.size()));
    out.write(node.label.data(),
              static_cast<std::streamsize>(node.label.size()));
    WriteValidity(out, node.validity);
  }
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const Edge& edge = graph.edge(e);
    WriteU32(out, static_cast<uint32_t>(edge.src));
    WriteU32(out, static_cast<uint32_t>(edge.dst));
    WriteF64(out, edge.weight);
    WriteValidity(out, edge.validity);
  }
  ReachabilityIndexSerializer::Write(graph.reachability(), out);
  if (!out) return Status::IOError("binary write failed");
  return Status::OK();
}

Status SaveGraphBinaryToFile(const TemporalGraph& graph,
                             const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  return SaveGraphBinary(graph, out);
}

Result<TemporalGraph> LoadGraphBinary(std::istream& in) {
  char magic[4];
  if (!in.read(magic, 4) || std::memcmp(magic, kBinaryMagic, 4) != 0) {
    return Status::Corruption("not a tgb file (bad magic)");
  }
  uint32_t version, timeline, num_nodes, num_edges;
  if (!ReadU32(in, &version) || version < 1 || version > kBinaryVersion) {
    return Status::Corruption("unsupported tgb version");
  }
  if (!ReadU32(in, &timeline) || !ReadU32(in, &num_nodes) ||
      !ReadU32(in, &num_edges)) {
    return Status::Corruption("truncated tgb header");
  }
  if (timeline == 0 ||
      timeline > static_cast<uint32_t>(temporal::kMaxTimelineLength) ||
      num_nodes > kMaxBinaryCount || num_edges > kMaxBinaryCount) {
    return Status::Corruption("implausible tgb header counts");
  }
  GraphBuilder builder(static_cast<TimePoint>(timeline),
                       ValidityPolicy::kStrict);
  for (uint32_t n = 0; n < num_nodes; ++n) {
    double weight;
    uint32_t label_length;
    if (!ReadF64(in, &weight) || !ReadU32(in, &label_length) ||
        label_length > kMaxLabelLength) {
      return Status::Corruption("bad node record");
    }
    std::string label(label_length, '\0');
    if (label_length > 0 &&
        !in.read(label.data(), static_cast<std::streamsize>(label_length))) {
      return Status::Corruption("truncated node label");
    }
    auto validity = ReadValidity(in);
    if (!validity.ok()) return validity.status();
    builder.AddNode(std::move(label), std::move(validity).value(), weight);
  }
  for (uint32_t e = 0; e < num_edges; ++e) {
    uint32_t src, dst;
    double weight;
    if (!ReadU32(in, &src) || !ReadU32(in, &dst) || !ReadF64(in, &weight)) {
      return Status::Corruption("bad edge record");
    }
    auto validity = ReadValidity(in);
    if (!validity.ok()) return validity.status();
    builder.AddEdge(static_cast<NodeId>(src), static_cast<NodeId>(dst),
                    std::move(validity).value(), weight);
  }
  Result<TemporalGraph> graph = builder.Build();
  if (!graph.ok() || version < kBinaryVersion) {
    // Version 1 has no labeling blob and the blobs of versions 2 and 3 have
    // other layouts, so theirs is ignored and the index is built on first
    // use — read-compat without a parser per legacy layout.
    return graph;
  }
  // The current version carries the labeling; install it as the graph's
  // index so the persisted bytes win (byte-identical round trips by
  // design).
  const Status blob = ReachabilityIndexSerializer::Read(in, &graph.value());
  if (!blob.ok()) return blob;
  return graph;
}

Result<TemporalGraph> LoadGraphBinaryFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  return LoadGraphBinary(in);
}

}  // namespace tgks::graph
