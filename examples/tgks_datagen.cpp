// tgks_gen: generate synthetic temporal-graph datasets to .tgf / .tgb.
//
//   tgks_gen dblp   --papers N --authors N --venues N [--seed S] OUT
//   tgks_gen social --nodes N [--connectivity P] [--timeline T]
//                       [--seed S] OUT
//
// The output format is chosen by the file extension: ".tgb" writes the
// compact binary format, anything else the .tgf text format. Numeric values
// must parse whole (sizes and the timeline as 32-bit integers, the seed as
// a 64-bit one, the connectivity as a finite number); anything else is a
// usage error.
//
// Examples:
//   tgks_gen dblp --papers 20000 --authors 8000 --venues 100 dblp.tgb
//   tgks_gen social --nodes 50000 --connectivity 0.5 net.tgf

#include <cstdint>
#include <iostream>
#include <string>

#include "common/random.h"
#include "datagen/dblp_generator.h"
#include "datagen/social_generator.h"
#include "examples/example_util.h"
#include "graph/graph_stats.h"
#include "graph/serialization.h"

namespace {

using tgks::examples::ParseFlag;

int Usage() {
  std::cerr << "usage:\n"
               "  tgks_gen dblp [--papers N] [--authors N] [--venues N]"
               " [--seed S] OUT\n"
               "  tgks_gen social [--nodes N] [--connectivity P]"
               " [--timeline T] [--seed S] OUT\n";
  return 2;
}

int WriteGraph(const tgks::graph::TemporalGraph& graph,
               const std::string& path) {
  const bool binary =
      path.size() > 4 && path.compare(path.size() - 4, 4, ".tgb") == 0;
  const tgks::Status status =
      binary ? tgks::graph::SaveGraphBinaryToFile(graph, path)
             : tgks::graph::SaveGraphToFile(graph, path);
  if (!status.ok()) {
    std::cerr << "write failed: " << status << "\n";
    return 1;
  }
  tgks::Rng rng(1);
  const auto stats = tgks::graph::ComputeGraphStats(graph, &rng);
  std::cout << "wrote " << path << ": " << stats.num_nodes << " nodes, "
            << stats.num_edges << " edges, timeline "
            << stats.timeline_length << ", measured edge connectivity "
            << stats.edge_connectivity << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string mode = argv[1];
  std::string out_path;
  int32_t papers = 10000, authors = 4000, venues = 60, nodes = 20000;
  int32_t timeline = 100;
  int64_t seed = 42;
  double connectivity = 0.7;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!arg.empty() && arg[0] == '-') {
      if (i + 1 >= argc) return Usage();
      const char* value = argv[++i];
      bool ok = false;
      if (arg == "--papers") {
        ok = ParseFlag(arg, value, &papers);
      } else if (arg == "--authors") {
        ok = ParseFlag(arg, value, &authors);
      } else if (arg == "--venues") {
        ok = ParseFlag(arg, value, &venues);
      } else if (arg == "--nodes") {
        ok = ParseFlag(arg, value, &nodes);
      } else if (arg == "--timeline") {
        ok = ParseFlag(arg, value, &timeline);
      } else if (arg == "--seed") {
        ok = ParseFlag(arg, value, &seed);
      } else if (arg == "--connectivity") {
        ok = ParseFlag(arg, value, &connectivity);
      }
      if (!ok) return Usage();
    } else if (out_path.empty()) {
      out_path = arg;
    } else {
      return Usage();
    }
  }
  if (out_path.empty()) return Usage();

  if (mode == "dblp") {
    tgks::datagen::DblpParams params;
    params.num_papers = papers;
    params.num_authors = authors;
    params.num_venues = venues;
    params.seed = static_cast<uint64_t>(seed);
    auto dataset = tgks::datagen::GenerateDblp(params);
    if (!dataset.ok()) {
      std::cerr << "generation failed: " << dataset.status() << "\n";
      return 1;
    }
    return WriteGraph(dataset->graph, out_path);
  }
  if (mode == "social") {
    tgks::datagen::SocialParams params;
    params.num_nodes = nodes;
    params.timeline_length = timeline;
    params.edge_connectivity = connectivity;
    params.seed = static_cast<uint64_t>(seed);
    auto dataset = tgks::datagen::GenerateSocial(params);
    if (!dataset.ok()) {
      std::cerr << "generation failed: " << dataset.status() << "\n";
      return 1;
    }
    std::cout << "calibrated connectivity: " << dataset->measured_connectivity
              << " (target " << connectivity << ")\n";
    return WriteGraph(dataset->graph, out_path);
  }
  return Usage();
}
