// Differential-oracle harness for the biconnected decomposition: every
// generated graph runs the iterative Hopcroft–Tarjan pass and the
// independent recursive reference (ReferenceBcc, tests/test_util.h),
// asserting canonical equivalence (same articulation points, same edge
// partition), and a rerun asserts bitwise field equality (the `.sgr`
// invariance contract). The same sweep checks the linear views build and
// the flat alias tables against their reference builds
// (tests/bicomp_test_util.h), bit for bit. Deep path/comb graphs pin the
// no-recursion guarantee, and the end-to-end section checks that `.sgr`
// bytes are reproducible, equal pinned digests and survive a reload.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bicomp/biconnected.h"
#include "bicomp/isp.h"
#include "bicomp_test_util.h"
#include "graph/binary_io.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "test_util.h"
#include "util/hash.h"
#include "util/rng.h"

namespace saphyra {
namespace {

using testing::CanonicalBcc;
using testing::Canonicalize;
using testing::ExpectBccBitwiseEqual;
using testing::ExpectIspTablesMatchReference;
using testing::ExpectViewsMatchReference;
using testing::MakeGraph;
using testing::ReferenceBcc;

// --- graph families ---------------------------------------------------------

Graph PathGraph(NodeId n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1});
  return MakeGraph(n, edges);
}

Graph CycleGraph(NodeId n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v < n; ++v) edges.push_back({v, (v + 1) % n});
  return MakeGraph(n, edges);
}

Graph StarGraph(NodeId leaves) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 1; v <= leaves; ++v) edges.push_back({0, v});
  return MakeGraph(leaves + 1, edges);
}

/// `k` cliques of `s` nodes chained so consecutive cliques share exactly
/// one vertex — every shared vertex is a cutpoint, every clique one
/// component.
Graph CliqueChain(NodeId k, NodeId s) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId c = 0; c < k; ++c) {
    NodeId base = c * (s - 1);
    for (NodeId i = 0; i < s; ++i) {
      for (NodeId j = i + 1; j < s; ++j) {
        edges.push_back({base + i, base + j});
      }
    }
  }
  return MakeGraph(k * (s - 1) + 1, edges);
}

/// Spine path with a pendant tooth on every spine node — the classic
/// deep-DFS shape with a bridge per edge.
Graph CombGraph(NodeId spine) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 0; v + 1 < spine; ++v) edges.push_back({v, v + 1});
  for (NodeId v = 0; v < spine; ++v) edges.push_back({v, spine + v});
  return MakeGraph(2 * spine, edges);
}

/// Several Erdős–Rényi blocks on disjoint id ranges plus trailing isolated
/// nodes: multi-component graphs exercise the per-root DFS restarts.
Graph DisconnectedBlocks(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> edges;
  NodeId base = 0;
  const uint32_t blocks = 2 + static_cast<uint32_t>(rng.UniformInt(3));
  for (uint32_t b = 0; b < blocks; ++b) {
    NodeId n = 3 + static_cast<NodeId>(rng.UniformInt(20));
    EdgeIndex m = n + static_cast<EdgeIndex>(rng.UniformInt(2 * n));
    for (EdgeIndex e = 0; e < m; ++e) {
      NodeId u = base + static_cast<NodeId>(rng.UniformInt(n));
      NodeId v = base + static_cast<NodeId>(rng.UniformInt(n));
      if (u != v) edges.push_back({u, v});
    }
    base += n;
  }
  return MakeGraph(base + 3, edges);  // 3 isolated nodes at the end
}

struct Case {
  std::string name;
  Graph graph;
};

std::vector<Case> GeneratorSweep() {
  std::vector<Case> cases;
  auto add = [&](std::string name, Graph g) {
    cases.push_back({std::move(name), std::move(g)});
  };
  char buf[96];
  // G(n, p) across densities, from forests to near-cliques.
  for (NodeId n : {8, 16, 32, 64}) {
    for (double density : {0.5, 1.0, 2.0, 4.0}) {
      for (uint64_t seed = 0; seed < 8; ++seed) {
        std::snprintf(buf, sizeof(buf), "er_n%u_d%.1f_s%llu", n, density,
                      static_cast<unsigned long long>(seed));
        const EdgeIndex max_edges =
            static_cast<EdgeIndex>(n) * (n - 1) / 2;
        add(buf, ErdosRenyi(n,
                            std::min(static_cast<EdgeIndex>(n * density),
                                     max_edges),
                            seed * 977 + 11));
      }
    }
  }
  // Trees: every edge a bridge.
  for (NodeId n : {2, 3, 10, 60, 300}) {
    for (uint64_t seed = 0; seed < 4; ++seed) {
      std::snprintf(buf, sizeof(buf), "tree_n%u_s%llu", n,
                    static_cast<unsigned long long>(seed));
      add(buf, RandomTree(n, seed * 313 + 7));
    }
  }
  // Cycles: one component, no cutpoints.
  for (NodeId n : {3, 4, 5, 10, 40, 150}) {
    std::snprintf(buf, sizeof(buf), "cycle_n%u", n);
    add(buf, CycleGraph(n));
  }
  // Cliques joined at cut vertices.
  for (auto [k, s] : std::vector<std::pair<NodeId, NodeId>>{
           {2, 3}, {3, 4}, {5, 3}, {4, 6}, {8, 4}, {2, 10}}) {
    std::snprintf(buf, sizeof(buf), "cliques_k%u_s%u", k, s);
    add(buf, CliqueChain(k, s));
  }
  // Stars: the center is the lone cutpoint.
  for (NodeId leaves : {3, 10, 60, 400}) {
    std::snprintf(buf, sizeof(buf), "star_%u", leaves);
    add(buf, StarGraph(leaves));
  }
  // Paths and combs (shallow versions of the deep stress shapes).
  for (NodeId n : {2, 17, 128}) {
    std::snprintf(buf, sizeof(buf), "path_n%u", n);
    add(buf, PathGraph(n));
  }
  add("comb_64", CombGraph(64));
  // Grids with deleted edges: bridge- and block-rich.
  for (auto [w, h, keep] : std::vector<std::tuple<NodeId, NodeId, double>>{
           {5, 4, 1.0}, {8, 6, 0.9}, {12, 9, 0.75}, {15, 12, 0.6}}) {
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      std::snprintf(buf, sizeof(buf), "grid_%ux%u_k%.2f_s%llu", w, h, keep,
                    static_cast<unsigned long long>(seed));
      add(buf, RoadGrid(w, h, keep, seed * 61).graph);
    }
  }
  // Disconnected multi-component graphs with isolated nodes.
  for (uint64_t seed = 0; seed < 10; ++seed) {
    std::snprintf(buf, sizeof(buf), "blocks_s%llu",
                  static_cast<unsigned long long>(seed));
    add(buf, DisconnectedBlocks(seed * 131 + 5));
  }
  // Hand-picked edge cases.
  add("empty", MakeGraph(0, {}));
  add("isolated_only", MakeGraph(4, {}));
  add("single_edge", MakeGraph(2, {{0, 1}}));
  add("triangle_plus_isolated", MakeGraph(5, {{0, 1}, {1, 2}, {2, 0}}));
  // Heavier-tailed families for good measure.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    std::snprintf(buf, sizeof(buf), "ba_s%llu",
                  static_cast<unsigned long long>(seed));
    add(buf, BarabasiAlbert(80, 2, seed * 17));
    std::snprintf(buf, sizeof(buf), "ws_s%llu",
                  static_cast<unsigned long long>(seed));
    add(buf, WattsStrogatz(60, 4, 0.2, seed * 29));
    std::snprintf(buf, sizeof(buf), "sbm_s%llu",
                  static_cast<unsigned long long>(seed));
    add(buf, StochasticBlockModel(60, 3, 0.25, 0.02, seed * 43));
  }
  return cases;
}

/// The reference implementation's decomposition in canonical form.
CanonicalBcc CanonicalReference(const Graph& g) {
  ReferenceBcc ref(g);
  CanonicalBcc out;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (ref.is_cutpoint(v)) out.cutpoints.push_back(v);
  }
  out.components.resize(ref.num_groups());
  for (const auto& [edge, group] : ref.edge_group()) {
    out.components[group].push_back(edge);
  }
  for (auto& edges : out.components) std::sort(edges.begin(), edges.end());
  std::sort(out.components.begin(), out.components.end());
  return out;
}

TEST(BicompDifferential, MatchesReferenceOracleAcrossGeneratorSweep) {
  std::vector<Case> cases = GeneratorSweep();
  // The acceptance bar: at least 200 generated instances.
  ASSERT_GE(cases.size(), 200u);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const BiconnectedComponents bcc = ComputeBiconnectedComponents(c.graph);
    EXPECT_EQ(Canonicalize(c.graph, bcc), CanonicalReference(c.graph));
    // Repeated runs are bitwise stable.
    ExpectBccBitwiseEqual(bcc, ComputeBiconnectedComponents(c.graph),
                          c.name + " rerun");
  }
}

TEST(BicompDifferential, ViewsAndAliasTablesMatchReferenceAcrossSweep) {
  std::vector<Case> cases = GeneratorSweep();
  ASSERT_GE(cases.size(), 200u);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const IspIndex isp(c.graph);
    // The views hold the decomposition's member arrays, not a copy.
    EXPECT_EQ(isp.views().raw_nodes().data(),
              isp.bcc().component_nodes.node_array().data());
    EXPECT_EQ(isp.views().raw_node_begin().data(),
              isp.bcc().component_nodes.begin_array().data());
    ExpectViewsMatchReference(c.graph, isp.bcc(), isp.views(), c.name);
    ExpectIspTablesMatchReference(isp, c.name);
  }
}

// --- deep-graph stress -------------------------------------------------------

TEST(BicompDifferential, MillionDeepPathRunsWithoutRecursion) {
  const NodeId n = 1000000;
  Graph g = PathGraph(n);
  BiconnectedComponents bcc = ComputeBiconnectedComponents(g);
  EXPECT_EQ(bcc.num_components, n - 1);  // every edge a bridge
  EXPECT_FALSE(bcc.is_cutpoint[0]);
  EXPECT_TRUE(bcc.is_cutpoint[1]);
  EXPECT_TRUE(bcc.is_cutpoint[n / 2]);
  EXPECT_FALSE(bcc.is_cutpoint[n - 1]);
}

TEST(BicompDifferential, MillionDeepCombRunsWithoutRecursion) {
  const NodeId spine = 1000000;
  Graph g = CombGraph(spine);  // DFS tree is >= 1M levels deep
  BiconnectedComponents bcc = ComputeBiconnectedComponents(g);
  EXPECT_EQ(bcc.num_components, g.num_edges());  // all bridges
  EXPECT_TRUE(bcc.is_cutpoint[spine / 2]);       // interior spine node
  EXPECT_FALSE(bcc.is_cutpoint[spine + 5]);      // a tooth tip
}

// --- end-to-end `.sgr` invariance -------------------------------------------

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(BicompDifferential, SgrBytesIdenticalAcrossRebuilds) {
  Graph g = RoadGrid(20, 15, 0.8, 4242).graph;
  IspIndex first(g);
  IspIndex second(g);

  const std::string dir = ::testing::TempDir();
  const std::string first_path = dir + "/bicomp_first.sgr";
  const std::string second_path = dir + "/bicomp_second.sgr";
  SgrWriteOptions wopts;
  ASSERT_TRUE(WriteSgr(first_path, g, &first.bcc(), &first.conn(),
                       &first.views(), &first.tree(), wopts)
                  .ok());
  ASSERT_TRUE(WriteSgr(second_path, g, &second.bcc(), &second.conn(),
                       &second.views(), &second.tree(), wopts)
                  .ok());
  const std::string first_bytes = ReadFileBytes(first_path);
  const std::string second_bytes = ReadFileBytes(second_path);
  ASSERT_FALSE(first_bytes.empty());
  // Bitwise identity of the whole file — header fingerprint included.
  EXPECT_TRUE(first_bytes == second_bytes)
      << "`.sgr` bytes differ between two builds of one graph";
  std::remove(first_path.c_str());
  std::remove(second_path.c_str());
}

/// FNV-1a of the `.sgr` bytes WriteSgr emits for `g` with its full
/// decomposition and no source provenance.
uint64_t SgrDigest(const Graph& g, const std::string& name) {
  IspIndex isp(g);
  const std::string path = ::testing::TempDir() + "/pinned_" + name + ".sgr";
  EXPECT_TRUE(WriteSgr(path, g, &isp.bcc(), &isp.conn(), &isp.views(),
                       &isp.tree())
                  .ok());
  const std::string bytes = ReadFileBytes(path);
  std::remove(path.c_str());
  Fnv1a64 h;
  h.Update(bytes);
  return h.Digest();
}

// The format is frozen at version 1: these digests were recorded from the
// writer before the decomposition derivation was made linear and flat, so
// any drift in the emitted bytes (section order, padding, a changed view
// or decomposition array) fails here, not only a rebuild-vs-rebuild check.
// Integers are written in native byte order; the digests are those of a
// little-endian host.
TEST(BicompDifferential, SgrBytesMatchPinnedDigests) {
  Graph fixture;
  ASSERT_TRUE(
      LoadSnapEdgeList(SAPHYRA_TEST_DATA_DIR "/serve_fixture.txt", &fixture)
          .ok());
  std::vector<std::pair<NodeId, NodeId>> star_edges;
  for (NodeId leaf = 1; leaf <= 1000; ++leaf) star_edges.push_back({0, leaf});
  star_edges.push_back({1001, 1002});
  star_edges.push_back({1002, 1003});
  star_edges.push_back({1001, 1003});
  const Graph star = MakeGraph(1004, star_edges);
  EXPECT_EQ(SgrDigest(fixture, "fixture"), 0x91d8aef26a89428cULL);
  EXPECT_EQ(SgrDigest(BarabasiAlbert(30, 2, 9), "ba30"),
            0xa14e043c5f1f95d5ULL);
  EXPECT_EQ(SgrDigest(star, "star"), 0xadfda5d7f44fb92eULL);
}

TEST(BicompDifferential, DeepGraphSurvivesTheFullSgrPipeline) {
  // End-to-end on a 100k-deep path: decomposition, block-cut tree, views,
  // serialization, reload. The 1M-scale binary smoke lives in CI where
  // graph_convert runs for real.
  Graph g = PathGraph(100000);
  IspIndex isp(g);
  EXPECT_EQ(isp.num_components(), g.num_edges());
  const std::string path = ::testing::TempDir() + "/bicomp_deep.sgr";
  SgrWriteOptions wopts;
  ASSERT_TRUE(WriteSgr(path, g, &isp.bcc(), &isp.conn(), &isp.views(),
                       &isp.tree(), wopts)
                  .ok());
  GraphCache cache;
  ASSERT_TRUE(LoadSgr(path, &cache).ok());
  EXPECT_TRUE(cache.has_decomposition);
  EXPECT_EQ(cache.bcc.num_components, isp.num_components());
  EXPECT_EQ(cache.bcc.arc_component, isp.bcc().arc_component);
  std::remove(path.c_str());
}

// The generator sweep stays small enough for the recursive reference; this
// pins a few larger, denser instances against it too.
TEST(BicompDifferential, MatchesReferenceOnLargerInstances) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Graph g = BarabasiAlbert(400, 3, seed * 101);
    SCOPED_TRACE("ba400 seed " + std::to_string(seed));
    EXPECT_EQ(Canonicalize(g, ComputeBiconnectedComponents(g)),
              CanonicalReference(g));
  }
}

}  // namespace
}  // namespace saphyra
