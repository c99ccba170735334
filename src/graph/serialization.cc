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
// Versions 2 to 4 appended a reachability labeling blob after the edge
// records; version 5 dropped it again (docs/file_formats.md). Every version
// is still read: the loader stops after the edge records, so an old blob is
// ignored and the index is built on first use.
constexpr uint32_t kBinaryVersion = 5;
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
  // Any labeling blob a version 2-4 file carries after the edges is left
  // unread.
  return builder.Build();
}

Result<TemporalGraph> LoadGraphBinaryFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  return LoadGraphBinary(in);
}

}  // namespace tgks::graph
