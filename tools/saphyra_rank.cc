// saphyra_rank — command-line node ranking.
//
// Loads a graph, picks (or reads) a target subset, and ranks it with one
// of the serving layer's estimators. The flags build the QueryRequest a
// saphyra_serve client would send; it is canonicalized and answered by the
// same dispatch (RunCanonicalQuery, service/session.h), so for one request
// both tools print the same estimates, bit for bit.
//
// Usage:
//   saphyra_rank --graph edges.txt [--format snap|dimacs|sgr|auto]
//                [--targets targets.txt | --random-targets K]
//                [--algorithm bc|bc-full|kpath|closeness|abra|kadabra]
//                [--epsilon 0.05] [--delta 0.01] [--topk K] [--seed 1]
//                [--strategy auto|topdown|hybrid]
//                [--lcc] [--no-cache] [--output ranking.tsv]
//
// --algorithm takes the six estimator names of docs/serving.md, plus the
// legacy aliases saphyra (= bc, the default) and saphyra-full (= bc-full);
// kpath runs with the request default hop budget k = 4. All algorithms
// run on the shared progressive sampling scheduler. By default they
// sample until every estimate carries the (--epsilon, --delta) guarantee;
// with --topk K they stop as soon as the K highest-ranked nodes are
// separated from the rest by their confidence intervals, which typically
// needs far fewer samples.
//
// Loading is cache-aware: when `<graph>.sgr` exists and is fresh (see
// tools/graph_convert.cc and README.md, "The .sgr binary cache"), the graph
// *and* its preprocessing are mmap'ed from the cache instead of re-parsing
// the text and re-running the decomposition; --no-cache forces the text
// path. A `.sgr` file can also be passed directly as --graph.
//
// --strategy picks the BFS traversal policy of the sampling kernels
// (graph/frontier.h): `auto` (default) and `hybrid` use the
// direction-optimizing top-down/bottom-up kernel, `topdown` forces the
// classic push. Purely an execution choice — estimates are bitwise
// identical for a fixed seed whichever policy runs (ABRA keeps its own
// truncated traversal and ignores the flag).
//
// Numeric flag values are checked (tools/flag_parse.h). A request the
// serving layer refuses as INVALID_ARGUMENT (--epsilon or --delta outside
// (0, 1), a target id out of range, an ε whose sample budget passes 2^64)
// is a usage error: exit 2.
//
// The targets file holds one node id per line; empty lines and '#'
// comments are skipped, and any other line that is not one whole
// non-negative integer (surrounding whitespace allowed) fails with exit 1.
// Output: "<rank>\t<node>\t<estimate>" sorted by rank, to stdout or
// --output, with estimates in shortest round-trip digits (as
// saphyra_serve prints them); diagnostics go to stderr.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "flag_parse.h"
#include "graph/binary_io.h"
#include "graph/connectivity.h"
#include "graph/frontier.h"
#include "metrics/rank.h"
#include "service/json_util.h"
#include "service/query.h"
#include "service/session.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace saphyra;

namespace {

struct Args {
  std::string graph_path;
  std::string format = "auto";
  std::string targets_path;
  size_t random_targets = 0;
  bool lcc = false;
  bool no_cache = false;
  std::string output;
  /// Every other flag lands on the request; targets are added once the
  /// graph is loaded.
  QueryRequest req;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --graph FILE [--format snap|dimacs|sgr|auto]\n"
      "          [--targets FILE | --random-targets K]\n"
      "          [--algorithm bc|bc-full|kpath|closeness|abra|kadabra]\n"
      "          [--epsilon E] [--delta D] [--topk K] [--seed S] [--lcc]\n"
      "          [--strategy auto|topdown|hybrid]\n"
      "          [--no-cache] [--output FILE]\n"
      "  --algorithm also accepts saphyra (= bc) and saphyra-full "
      "(= bc-full)\n",
      argv0);
}

/// The wire estimator names plus the legacy aliases of this tool.
bool ParseAlgorithm(const std::string& name, EstimatorKind* out) {
  if (name == "saphyra") return ParseEstimatorKind("bc", out);
  if (name == "saphyra-full") return ParseEstimatorKind("bc-full", out);
  return ParseEstimatorKind(name, out);
}

bool Parse(int argc, char** argv, Args* args) {
  QueryRequest& req = args->req;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    const char* val = nullptr;
    auto number = [&](auto* dst) {
      return ParseFlagValue(key.c_str(), val, dst);
    };
    if (key == "--lcc") {
      args->lcc = true;
    } else if (key == "--no-cache") {
      args->no_cache = true;
    } else if (key == "--graph" && (val = next())) {
      args->graph_path = val;
    } else if (key == "--format" && (val = next())) {
      args->format = val;
    } else if (key == "--targets" && (val = next())) {
      args->targets_path = val;
    } else if (key == "--random-targets" && (val = next())) {
      if (!number(&args->random_targets)) return false;
    } else if (key == "--algorithm" && (val = next())) {
      if (!ParseAlgorithm(val, &req.estimator)) {
        std::fprintf(stderr, "unknown --algorithm %s\n", val);
        return false;
      }
    } else if (key == "--epsilon" && (val = next())) {
      if (!number(&req.epsilon)) return false;
    } else if (key == "--delta" && (val = next())) {
      if (!number(&req.delta)) return false;
    } else if (key == "--topk" && (val = next())) {
      if (!number(&req.top_k)) return false;
    } else if (key == "--seed" && (val = next())) {
      if (!number(&req.seed)) return false;
    } else if (key == "--strategy" && (val = next())) {
      if (!ParseTraversalPolicy(val, &req.traversal)) {
        std::fprintf(stderr, "unknown --strategy %s\n", val);
        return false;
      }
    } else if (key == "--output" && (val = next())) {
      args->output = val;
    } else {
      std::fprintf(stderr, "unknown or incomplete option: %s\n", key.c_str());
      return false;
    }
  }
  if (args->graph_path.empty()) {
    std::fprintf(stderr, "--graph is required\n");
    return false;
  }
  if (!args->targets_path.empty() && args->random_targets > 0) {
    std::fprintf(stderr, "--targets and --random-targets are exclusive\n");
    return false;
  }
  return true;
}

/// Read the node ids of `path` into *targets (range checks are
/// CanonicalizeQuery's). A malformed line is reported by its number.
bool LoadTargets(const std::string& path, std::vector<NodeId>* targets) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open targets file %s\n", path.c_str());
    return false;
  }
  std::string line;
  for (size_t line_no = 1; std::getline(in, line); ++line_no) {
    if (line.empty() || line[0] == '#') continue;
    const size_t first = line.find_first_not_of(" \t\r");
    const size_t last = line.find_last_not_of(" \t\r");
    const std::string id = first == std::string::npos
                               ? std::string()
                               : line.substr(first, last - first + 1);
    const std::string where = path + ":" + std::to_string(line_no);
    NodeId v = 0;
    if (!ParseFlagValue(where.c_str(), id.c_str(), &v)) return false;
    targets->push_back(v);
  }
  if (targets->empty()) {
    std::fprintf(stderr, "targets file %s lists no node ids\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) {
    Usage(argv[0]);
    return 2;
  }
  QueryRequest& req = args.req;

  Timer timer;
  GraphCache cache;
  LoadGraphOptions lopts;
  lopts.format = args.format;
  lopts.use_cache = !args.no_cache;
  bool from_cache = false;
  Status st = LoadGraphAuto(args.graph_path, lopts, &cache, &from_cache);
  if (!st.ok()) {
    std::fprintf(stderr, "failed to load graph: %s\n", st.ToString().c_str());
    return 1;
  }
  Graph g = std::move(cache.graph);
  if (args.lcc) {
    // The cached decomposition labels the full graph; renumbering to the
    // giant component invalidates it.
    g = LargestComponent(g);
    cache.has_decomposition = false;
  }
  std::fprintf(stderr, "loaded %s in %s%s\n", g.DebugString().c_str(),
               FormatDuration(timer.ElapsedSeconds()).c_str(),
               from_cache ? " (.sgr cache)" : "");
  if (g.num_nodes() < 2) {
    std::fprintf(stderr, "graph too small to rank\n");
    return 1;
  }

  // No targets means the whole graph, as in a served request.
  if (!args.targets_path.empty()) {
    if (!LoadTargets(args.targets_path, &req.targets)) return 1;
  } else if (args.random_targets > 0) {
    Rng rng(req.seed ^ 0xA5A5A5A5ULL);
    std::vector<NodeId> all(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
    size_t k = std::min<size_t>(args.random_targets, all.size());
    for (size_t i = 0; i < k; ++i) {
      size_t j = i + rng.UniformInt(all.size() - i);
      std::swap(all[i], all[j]);
    }
    all.resize(k);
    req.targets = std::move(all);
  }
  st = CanonicalizeQuery(g.num_nodes(), &req);
  QueryResult res;
  if (st.ok()) {
    std::fprintf(stderr,
                 "ranking %zu target nodes with %s (eps=%g, delta=%g%s)\n",
                 req.targets.empty() ? size_t{g.num_nodes()}
                                     : req.targets.size(),
                 EstimatorKindName(req.estimator), req.epsilon, req.delta,
                 req.top_k > 0 ? ", top-k separation mode" : "");
    timer.Restart();
    const GraphSnapshot snap(std::move(g), std::move(cache),
                             /*fingerprint=*/0);
    res = RunCanonicalQuery(snap, req, /*default_threads=*/1, nullptr);
    st = res.status;
  }
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    if (st.code() != StatusCode::kInvalidArgument) return 1;
    Usage(argv[0]);
    return 2;
  }
  std::fprintf(stderr, "samples=%llu\nranked in %s\n",
               static_cast<unsigned long long>(res.samples_used),
               FormatDuration(timer.ElapsedSeconds()).c_str());

  std::vector<uint32_t> ranks = RanksDescending(res.estimates);
  std::vector<size_t> order(res.nodes.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return ranks[a] < ranks[b]; });

  FILE* out = stdout;
  if (!args.output.empty()) {
    out = std::fopen(args.output.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", args.output.c_str());
      return 1;
    }
  }
  for (size_t i : order) {
    std::fprintf(out, "%u\t%u\t%s\n", ranks[i], res.nodes[i],
                 JsonNumber(res.estimates[i]).c_str());
  }
  if (out != stdout && std::fclose(out) != 0) {
    std::fprintf(stderr, "cannot write %s\n", args.output.c_str());
    return 1;
  }
  return 0;
}
