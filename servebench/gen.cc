// Input generation: graphs, request scripts and their on-disk cache.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "bench_util.h"
#include "bicomp/biconnected.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "workloads.h"

namespace servebench {

using saphyra::Graph;
using saphyra::GraphBuilder;
using saphyra::NodeId;
using saphyra::Rng;

namespace {

// Social graph: the social500k surrogate (BA core, 30% leaves).
constexpr NodeId kSocialNodes = 500000;
constexpr double kSocialLeaves = 0.30;
constexpr NodeId kSocialEdgesPerNode = 4;
// Road graph: road640k, an 800x800 lattice thinned to 80% of its edges.
constexpr NodeId kRoadSide = 800;
constexpr double kRoadKeep = 0.80;
// social-subset: per-client script length, target sizes, accuracies.
constexpr uint32_t kSubsetScript = 640;
constexpr uint32_t kSubsetSizes[] = {10, 100, 1000};
// New requests ask for ε 0.05 three times in four and ε 0.02 otherwise,
// so that the median latency falls inside the ε 0.05 mode (memo hits
// below it, the ε 0.02 tail above it) instead of between two modes.
// kSubsetScript is a multiple of the 16-request block below.
constexpr double kSubsetEpsCoarse = 0.05;
constexpr double kSubsetEpsFine = 0.02;
// road-mutate: rounds scripted, read accuracy, rectangle side (grid units).
constexpr uint32_t kRoadRounds = 120;
constexpr double kRoadEps = 0.3;
constexpr float kRoadRect = 30.0f;
// social-mixed: rounds scripted and subset size.
constexpr uint32_t kMixedRounds = 100;
constexpr uint32_t kMixedTargets = 50;
// A block counts as small (local repair) up to this many nodes.
constexpr size_t kSmallBlock = 64;

uint64_t EdgeKey(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return (uint64_t{u} << 32) | v;
}

/// Whether the SNAP loader numbers the first token of a line before the
/// second when both are new. Probed on a two-line file whose answer shows
/// in the loaded degrees.
bool LoaderNumbersFirstTokenFirst(const std::string& dir) {
  const std::string probe = dir + "/order-probe.txt";
  std::ofstream(probe) << "10\t20\n20\t30\n";
  Graph g;
  SAPHYRA_CHECK(saphyra::LoadSnapEdgeList(probe, &g).ok());
  std::filesystem::remove(probe);
  return g.degree(1) == 2;  // 10→0, 20→1, 30→2: node 1 is the middle
}

/// Renumber the connected graph `g` in BFS order and write it as a SNAP
/// edge list whose lines introduce the new ids in increasing order, at
/// most one new id per line after the first. The loader's id compaction
/// (first appearance, or sorted ids) is then the identity, so the ids in
/// the request script are the ids the serving process sees. Returns the
/// renumbering old → new.
std::vector<NodeId> WriteIdentityEdgeList(const Graph& g,
                                          const std::string& dir) {
  constexpr NodeId kNone = ~NodeId{0};
  const NodeId n = g.num_nodes();
  std::vector<NodeId> order = {0}, relabel(n, kNone), parent(n, kNone);
  relabel[0] = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    for (NodeId w : g.neighbors(order[i])) {
      if (relabel[w] != kNone) continue;
      relabel[w] = static_cast<NodeId>(order.size());
      parent[w] = order[i];
      order.push_back(w);
    }
  }
  SAPHYRA_CHECK(order.size() == n);  // both generators yield connected graphs
  const bool first_token_first = LoaderNumbersFirstTokenFirst(dir);
  std::string out = "# servebench generated edge list\n";
  out.reserve(g.num_edges() * 16);
  char buf[32];
  auto line = [&](NodeId a, NodeId b) {
    const int len = std::snprintf(buf, sizeof(buf), "%u\t%u\n", a, b);
    out.append(buf, static_cast<size_t>(len));
  };
  // Tree edges first: line i introduces id i; ids 0 and 1 share line 1.
  for (NodeId i = 1; i < n; ++i) {
    const NodeId p = relabel[parent[order[i]]];
    if (i == 1 && !first_token_first) {
      line(i, p);
    } else {
      line(p, i);
    }
  }
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (u < v && parent[v] != u && parent[u] != v) {
        line(relabel[u], relabel[v]);
      }
    }
  }
  std::ofstream(dir + "/graph.txt", std::ios::binary) << out;
  return relabel;
}

Graph Relabeled(const Graph& g, const std::vector<NodeId>& relabel) {
  GraphBuilder b;
  b.Reserve(g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (u < v) b.AddEdge(relabel[u], relabel[v]);
    }
  }
  Graph out;
  SAPHYRA_CHECK(b.Build(g.num_nodes(), &out).ok());
  return out;
}

std::string TargetsJson(const std::vector<NodeId>& t) {
  std::string s = "[";
  for (size_t i = 0; i < t.size(); ++i) {
    if (i) s += ',';
    s += std::to_string(t[i]);
  }
  return s + "]";
}

std::vector<NodeId> RandomTargets(Rng* rng, NodeId n, size_t k) {
  std::unordered_set<NodeId> seen;
  std::vector<NodeId> out;
  while (out.size() < k) {
    const NodeId v = static_cast<NodeId>(rng->UniformInt(n));
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

std::string Query(const std::string& id, const char* estimator, double eps,
                  uint64_t seed, uint32_t threads, uint64_t topk,
                  const std::vector<NodeId>& targets) {
  std::ostringstream s;
  s << "{\"id\":\"" << id << "\",\"estimator\":\"" << estimator
    << "\",\"epsilon\":" << eps << ",\"seed\":" << seed;
  if (topk > 0) s << ",\"topk\":" << topk;
  s << ",\"threads\":" << threads << ",\"targets\":" << TargetsJson(targets)
    << "}";
  return s.str();
}

std::string Update(const std::string& id, bool insert, NodeId u, NodeId v) {
  return "{\"id\":\"" + id + "\",\"op\":\"update\",\"action\":\"" +
         (insert ? "insert" : "delete") + "\",\"edge\":[" +
         std::to_string(u) + "," + std::to_string(v) + "]}";
}

/// Builds valid update batches against the evolving edge set. Each batch
/// is (local insert, far insert, far delete, local delete):
///  * local insert: a chord between two non-adjacent nodes of a small
///    bi-component, or — where none is left — between two leaves of one
///    host, which closes a triangle in a dangling part of the graph;
///  * far insert / far delete: a chord between two random nodes, removed
///    again right away, so local updates keep landing in small blocks;
///  * local delete: an edge inside another small bi-component (both
///    endpoints keep degree >= 1, so no node is isolated and the node
///    count never changes), or else the batch's own local chord.
class UpdateMaker {
 public:
  UpdateMaker(const Graph& g, Rng* rng)
      : g_(g), rng_(rng), deg_(g.num_nodes()) {
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      deg_[u] = g.degree(u);
      for (NodeId v : g.neighbors(u)) {
        if (u < v) edges_.insert(EdgeKey(u, v));
      }
    }
    bcc_ = saphyra::ComputeBiconnectedComponents(g);
    for (uint32_t c = 0; c < bcc_.num_components; ++c) {
      const size_t sz = bcc_.component_nodes[c].size();
      if (sz >= 3 && sz <= kSmallBlock) small_.push_back(c);
    }
    for (size_t i = small_.size(); i > 1; --i) {
      std::swap(small_[i - 1], small_[rng_->UniformInt(i)]);
    }
  }

  void Batch(const std::string& prefix, std::vector<std::string>* out) {
    auto [lu, lv] = LocalInsert(prefix + "-0", out);
    auto [fu, fv] = FarChord();
    Apply(true, fu, fv);
    out->push_back(Update(prefix + "-1", true, fu, fv));
    Apply(false, fu, fv);
    out->push_back(Update(prefix + "-2", false, fu, fv));
    auto [du, dv] = BlockEdge();
    if (du == dv) {
      du = lu;
      dv = lv;
    }
    Apply(false, du, dv);
    out->push_back(Update(prefix + "-3", false, du, dv));
  }

  std::pair<NodeId, NodeId> LocalInsert(const std::string& id,
                                        std::vector<std::string>* out) {
    const auto [u, v] = LocalChord();
    Apply(true, u, v);
    out->push_back(Update(id, true, u, v));
    return {u, v};
  }

 private:
  bool Has(NodeId u, NodeId v) const { return edges_.count(EdgeKey(u, v)) > 0; }
  void Apply(bool insert, NodeId u, NodeId v) {
    SAPHYRA_CHECK(u != v && Has(u, v) != insert);
    if (insert) {
      edges_.insert(EdgeKey(u, v));
      ++deg_[u];
      ++deg_[v];
    } else {
      edges_.erase(EdgeKey(u, v));
      --deg_[u];
      --deg_[v];
    }
  }

  std::pair<NodeId, NodeId> LocalChord() {
    while (next_small_ < small_.size()) {
      const auto& nodes = bcc_.component_nodes[small_[next_small_++]];
      for (int tries = 0; tries < 64; ++tries) {
        const NodeId u = nodes[rng_->UniformInt(nodes.size())];
        const NodeId v = nodes[rng_->UniformInt(nodes.size())];
        if (u != v && !Has(u, v)) return {u, v};
      }
    }
    for (;;) {  // two leaves of one host
      const NodeId host = static_cast<NodeId>(rng_->UniformInt(g_.num_nodes()));
      NodeId first = host;
      for (NodeId w : g_.neighbors(host)) {
        if (deg_[w] != 1) continue;
        if (first == host) {
          first = w;
        } else if (!Has(first, w)) {
          return {first, w};
        }
      }
    }
  }

  std::pair<NodeId, NodeId> FarChord() {
    for (;;) {
      const NodeId u = static_cast<NodeId>(rng_->UniformInt(g_.num_nodes()));
      const NodeId v = static_cast<NodeId>(rng_->UniformInt(g_.num_nodes()));
      if (u != v && !Has(u, v)) return {u, v};
    }
  }

  /// An edge of a not yet used small block whose endpoints keep degree
  /// >= 1; {0, 0} when none is left.
  std::pair<NodeId, NodeId> BlockEdge() {
    while (next_small_ < small_.size()) {
      const uint32_t c = small_[next_small_++];
      for (NodeId u : bcc_.component_nodes[c]) {
        const auto nbr = g_.neighbors(u);
        for (size_t i = 0; i < nbr.size(); ++i) {
          const NodeId v = nbr[i];
          if (bcc_.arc_component[g_.offset(u) + i] == c && Has(u, v) &&
              deg_[u] > 1 && deg_[v] > 1) {
            return {u, v};
          }
        }
      }
    }
    return {0, 0};
  }

  const Graph& g_;
  Rng* rng_;
  std::vector<NodeId> deg_;
  std::unordered_set<uint64_t> edges_;
  saphyra::BiconnectedComponents bcc_;
  std::vector<uint32_t> small_;
  size_t next_small_ = 0;
};

void Emit(std::ofstream* f, const char* section, uint32_t client,
          const std::string& json) {
  *f << section << '\t' << client << '\t' << json << '\n';
}

}  // namespace

std::string GeneratorParams(const WorkloadSpec& spec) {
  std::ostringstream s;
  s << "v4 " << spec.name << " round=" << spec.round_queries
    << " social=" << kSocialNodes << "/" << kSocialLeaves << "/"
    << kSocialEdgesPerNode << " road=" << kRoadSide << "/" << kRoadKeep
    << " subset=" << kSubsetScript << "/" << kSubsetEpsCoarse << "/"
    << kSubsetEpsFine << " road_rounds=" << kRoadRounds << "/"
    << kRoadEps << "/" << kRoadRect << " mixed=" << kMixedRounds << "/"
    << kMixedTargets << " small_block=" << kSmallBlock;
  return s.str();
}

bool GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                    const std::string& dir) {
  std::filesystem::create_directories(dir);
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5EB);
  Graph original;
  saphyra::RoadNetwork road;
  if (spec.graph == GraphKind::kSocial) {
    original = saphyra::bench::SocialGraph(kSocialNodes, kSocialLeaves,
                                           kSocialEdgesPerNode, seed);
  } else {
    road = saphyra::RoadGrid(kRoadSide, kRoadSide, kRoadKeep, seed);
    original = std::move(road.graph);
  }
  const NodeId n = original.num_nodes();
  const std::vector<NodeId> relabel = WriteIdentityEdgeList(original, dir);
  // The graph as the serving process will load it, with road coordinates
  // carried over to the new ids.
  saphyra::RoadNetwork mapped;
  mapped.graph = Relabeled(original, relabel);
  if (spec.graph == GraphKind::kRoad) {
    mapped.x.resize(n);
    mapped.y.resize(n);
    for (NodeId v = 0; v < n; ++v) {
      mapped.x[relabel[v]] = road.x[v];
      mapped.y[relabel[v]] = road.y[v];
    }
  }
  const Graph& g = mapped.graph;

  std::ofstream f(dir + "/script.tsv", std::ios::binary);
  auto rect = [&] {
    for (;;) {
      const float x0 = static_cast<float>(
          rng.UniformInt(static_cast<uint64_t>(kRoadSide - kRoadRect)));
      const float y0 = static_cast<float>(
          rng.UniformInt(static_cast<uint64_t>(kRoadSide - kRoadRect)));
      std::vector<NodeId> t = saphyra::NodesInRectangle(
          mapped, x0, y0, x0 + kRoadRect, y0 + kRoadRect);
      if (t.size() >= 2) return t;
    }
  };
  UpdateMaker updates(g, &rng);
  switch (spec.traffic) {
    case Traffic::kClients:
      for (uint32_t c = 0; c < spec.clients; ++c) {
        for (uint32_t i = 0; i < 2; ++i) {
          Emit(&f, "warmup", c,
               Query("w" + std::to_string(c) + "-" + std::to_string(i), "bc",
                     0.05, rng.Next() >> 16, 1, 0,
                     RandomTargets(&rng, n, 100)));
        }
        // Requests come in shuffled blocks of 16 with fixed shares, so
        // any stretch of the script has nearly the same mix: 4 repeat one
        // of the client's 16 latest requests verbatim (the repeat shape of
        // ranking traffic), 9 ask for ε 0.05 and 3 for ε 0.02, with the
        // target sizes spread evenly over each accuracy.
        std::vector<std::string> sent;
        while (sent.size() < kSubsetScript) {
          std::vector<int> block;  // -1 = repeat; else eps * 3 + size index
          for (int i = 0; i < 4; ++i) block.push_back(-1);
          for (int i = 0; i < 9; ++i) block.push_back(i % 3);
          for (int i = 0; i < 3; ++i) block.push_back(3 + i);
          for (size_t i = block.size(); i > 1; --i) {
            std::swap(block[i - 1], block[rng.UniformInt(i)]);
          }
          for (int slot : block) {
            std::string line;
            if (slot < 0 && !sent.empty()) {
              const size_t window = std::min<size_t>(sent.size(), 16);
              line = sent[sent.size() - 1 - rng.UniformInt(window)];
            } else {
              slot = std::max(slot, 0);
              line = Query("c" + std::to_string(c) + "-" +
                               std::to_string(sent.size()),
                           "bc", slot < 3 ? kSubsetEpsCoarse : kSubsetEpsFine,
                           rng.Next() >> 16, 1, 0,
                           RandomTargets(&rng, n, kSubsetSizes[slot % 3]));
            }
            sent.push_back(line);
            Emit(&f, "timed", c, line);
          }
        }
      }
      break;
    case Traffic::kReadWriteRounds: {
      for (uint32_t c = 0; c < spec.clients; ++c) {
        Emit(&f, "warmup", c,
             Query("w" + std::to_string(c), "bc", kRoadEps, rng.Next() >> 16,
                   1, 0, rect()));
      }
      for (uint32_t r = 0; r < kRoadRounds; ++r) {
        for (uint32_t c = 0; c < spec.clients; ++c) {
          for (uint32_t i = 0; i < spec.round_queries; ++i) {
            Emit(&f, "timed", c,
                 Query("r" + std::to_string(r) + "-" + std::to_string(c) +
                           "-" + std::to_string(i),
                       "bc", kRoadEps, rng.Next() >> 16, 1, 0, rect()));
          }
        }
        std::vector<std::string> batch;
        updates.Batch("u" + std::to_string(r), &batch);
        for (const std::string& u : batch) Emit(&f, "write", 0, u);
      }
      for (uint32_t i = 0; i < 2; ++i) {
        Emit(&f, "check", 0,
             Query("check" + std::to_string(i), "bc", kRoadEps,
                   rng.Next() >> 16, 1, 0, rect()));
      }
      break;
    }
    case Traffic::kRounds: {
      // Per round: k-path, bc, closeness, KADABRA (top-k), bc (top-k).
      // The warm-up round runs the same mix at twice the epsilon.
      auto round = [&](const char* section, const std::string& p,
                       double scale) {
        auto t = [&] { return RandomTargets(&rng, n, kMixedTargets); };
        Emit(&f, section, 0,
             Query(p + "-kpath", "kpath", 0.02 * scale, rng.Next() >> 16, 4,
                   0, t()));
        Emit(&f, section, 0,
             Query(p + "-bc", "bc", 0.02 * scale, rng.Next() >> 16, 4, 0,
                   t()));
        Emit(&f, section, 0,
             Query(p + "-closeness", "closeness", 0.05 * scale,
                   rng.Next() >> 16, 4, 0, t()));
        Emit(&f, section, 0,
             Query(p + "-kadabra", "kadabra", 0.02 * scale, rng.Next() >> 16,
                   4, 10, t()));
        Emit(&f, section, 0,
             Query(p + "-bctop", "bc", 0.02 * scale, rng.Next() >> 16, 4, 5,
                   t()));
      };
      round("warmup", "w", 2.0);
      for (uint32_t r = 0; r < kMixedRounds; ++r) {
        round("timed", "m" + std::to_string(r), 1.0);
      }
      break;
    }
  }
  if (spec.traffic != Traffic::kReadWriteRounds) {
    // One batch plus three more local inserts: five local updates and two
    // far ones, so the median is a local update, not a mix of both kinds.
    std::vector<std::string> batch;
    updates.Batch("p", &batch);
    for (int i = 4; i < 7; ++i) {
      updates.LocalInsert("p-" + std::to_string(i), &batch);
    }
    for (const std::string& u : batch) Emit(&f, "update", 0, u);
  }
  f.close();
  return static_cast<bool>(f);
}

bool ReadScript(const std::string& dir, std::vector<ScriptLine>* out) {
  std::ifstream f(dir + "/script.tsv", std::ios::binary);
  if (!f) return false;
  std::string line;
  while (std::getline(f, line)) {
    const size_t a = line.find('\t');
    const size_t b = a == std::string::npos ? a : line.find('\t', a + 1);
    if (b == std::string::npos) return false;
    ScriptLine s;
    s.section = line.substr(0, a);
    s.client = static_cast<uint32_t>(std::stoul(line.substr(a + 1, b - a - 1)));
    s.json = line.substr(b + 1);
    out->push_back(std::move(s));
  }
  return true;
}

}  // namespace servebench
