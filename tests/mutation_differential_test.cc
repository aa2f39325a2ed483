// The dynamic-graph serving differential oracle: a session mutated
// through {"op":"update"} requests (delta overlay + incremental bicomp
// repair + epoch swap) must answer every query bitwise identically to a
// COLD session opened on a from-scratch re-conversion of the same edge
// set. Pinned over a generator sweep (ER, BA, WS, road grid, SBM), random
// insert/delete streams, and scheduler admission concurrency {1, 8}. (The
// repair's full-pass fallback is pinned against the full pass directly in
// incremental_bicomp_test.)
//
// The oracle is deliberately expensive: after every mutation batch it
// rebuilds the graph from the reference edge set, recomputes the full
// decomposition, writes a fresh `.sgr`, and serves the workload on a cold
// serial session. Whatever shortcut the dynamic path takes — the
// overlay merge, incremental repair, adopted indices, epoch-chained memo
// keys — must be invisible in the result bytes.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bicomp/isp.h"
#include "graph/binary_io.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "service/query.h"
#include "service/scheduler.h"
#include "service/session.h"
#include "service/session_pool.h"
#include "util/logging.h"
#include "util/rng.h"

namespace saphyra {
namespace {

using EdgeSet = std::set<std::pair<NodeId, NodeId>>;

std::string TempPath(const std::string& stem) {
  return "/tmp/saphyra_mutdiff_" + std::to_string(::getpid()) + "_" + stem;
}

EdgeSet EdgesOf(const Graph& g) {
  EdgeSet edges;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (u < v) edges.insert({u, v});
    }
  }
  return edges;
}

Graph BuildFromEdges(NodeId n, const EdgeSet& edges) {
  GraphBuilder b;
  for (const auto& [u, v] : edges) b.AddEdge(u, v);
  Graph g;
  SAPHYRA_CHECK(b.Build(n, &g).ok());
  return g;
}

/// Write `g` as text + a fully preprocessed `.sgr` next to it. The `.sgr`
/// is written from `g` itself (not a text re-parse): LoadSnapEdgeList
/// renumbers node ids in first-appearance order, and this test reasons
/// about edges in the generator's id space, so the served CSR must keep
/// those ids verbatim.
struct GraphFiles {
  std::string text_path;
  std::string sgr_path;

  GraphFiles(const Graph& g, const std::string& stem)
      : text_path(TempPath(stem + ".txt")) {
    sgr_path = SgrCachePathFor(text_path);
    SAPHYRA_CHECK(SaveSnapEdgeList(g, text_path).ok());
    IspIndex isp(g);
    SgrWriteOptions wopts;
    wopts.source_path = text_path;
    SAPHYRA_CHECK(WriteSgr(sgr_path, g, &isp.bcc(), &isp.conn(), &isp.views(),
                           &isp.tree(), wopts)
                      .ok());
  }
  ~GraphFiles() {
    std::remove(text_path.c_str());
    std::remove(sgr_path.c_str());
  }
};

/// Small but decomposition-sensitive workload: bc leans on the repaired
/// ISP index, closeness on the raw CSR.
std::vector<QueryRequest> Workload(NodeId n) {
  std::vector<QueryRequest> reqs;
  QueryRequest bc;
  bc.id = "bc";
  bc.estimator = EstimatorKind::kBc;
  bc.epsilon = 0.15;
  bc.delta = 0.05;
  bc.seed = 7;
  for (NodeId v = 0; v < std::min<NodeId>(n, 8); ++v) bc.targets.push_back(v);
  reqs.push_back(bc);

  QueryRequest cl;
  cl.id = "closeness";
  cl.estimator = EstimatorKind::kCloseness;
  cl.epsilon = 0.2;
  cl.delta = 0.05;
  cl.seed = 11;
  for (NodeId v = 0; v < std::min<NodeId>(n, 6); ++v) cl.targets.push_back(v);
  reqs.push_back(cl);
  return reqs;
}

void ExpectBitwiseEqual(const QueryResult& oracle, const QueryResult& got,
                        const std::string& what) {
  ASSERT_TRUE(oracle.status.ok()) << what << ": " << oracle.status.ToString();
  ASSERT_TRUE(got.status.ok()) << what << ": " << got.status.ToString();
  EXPECT_FALSE(got.degraded) << what;
  ASSERT_EQ(oracle.nodes, got.nodes) << what;
  ASSERT_EQ(oracle.estimates.size(), got.estimates.size()) << what;
  EXPECT_EQ(std::memcmp(oracle.estimates.data(), got.estimates.data(),
                        oracle.estimates.size() * sizeof(double)),
            0)
      << what << ": estimates differ bitwise";
  EXPECT_EQ(oracle.samples_used, got.samples_used) << what;
}

QueryRequest UpdateRequest(EdgeMutationKind kind, NodeId u, NodeId v) {
  QueryRequest req;
  req.id = "mut";
  req.op = RequestOp::kUpdate;
  req.action = kind;
  req.edge_u = u;
  req.edge_v = v;
  return req;
}

/// True when u and v stay connected after removing edge {u, v} — used to
/// keep the mutation stream connectivity-preserving, so every estimator
/// in the workload stays on its well-covered connected-graph path (the
/// disconnected regimes are pinned by the incremental bicomp tests).
bool StillConnectedWithout(NodeId n, const EdgeSet& edges, NodeId u, NodeId v) {
  std::vector<std::vector<NodeId>> adj(n);
  for (const auto& [a, b] : edges) {
    if ((a == u && b == v) || (a == v && b == u)) continue;
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  std::vector<bool> seen(n, false);
  std::vector<NodeId> queue{u};
  seen[u] = true;
  for (size_t head = 0; head < queue.size(); ++head) {
    if (queue[head] == v) return true;
    for (NodeId w : adj[queue[head]]) {
      if (!seen[w]) {
        seen[w] = true;
        queue.push_back(w);
      }
    }
  }
  return false;
}

/// Deterministic connectivity-preserving mutation stream: inserts of
/// absent edges and deletes of present-but-not-bridge edges, interleaved.
std::vector<EdgeMutation> MakeStream(NodeId n, const EdgeSet& initial,
                                     size_t count, uint64_t seed) {
  Rng rng(seed);
  EdgeSet edges = initial;
  std::vector<EdgeMutation> stream;
  size_t guard = 0;
  while (stream.size() < count && ++guard < count * 200) {
    NodeId u = static_cast<NodeId>(rng.UniformInt(n));
    NodeId v = static_cast<NodeId>(rng.UniformInt(n));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    const bool present = edges.count({u, v}) != 0;
    const bool want_delete = rng.UniformDouble() < 0.45;
    if (want_delete && present) {
      if (!StillConnectedWithout(n, edges, u, v)) continue;
      edges.erase({u, v});
      stream.push_back({EdgeMutationKind::kDelete, u, v});
    } else if (!want_delete && !present) {
      edges.insert({u, v});
      stream.push_back({EdgeMutationKind::kInsert, u, v});
    }
  }
  SAPHYRA_CHECK(stream.size() == count);
  return stream;
}

struct GeneratorCase {
  const char* name;
  Graph graph;
};

std::vector<GeneratorCase> GeneratorSweep() {
  std::vector<GeneratorCase> cases;
  cases.push_back({"er", PatchConnect(ErdosRenyi(48, 110, 101), 101)});
  cases.push_back({"ba", BarabasiAlbert(48, 2, 202)});
  cases.push_back({"ws", WattsStrogatz(48, 4, 0.2, 303)});
  cases.push_back({"road", RoadGrid(8, 6, 0.85, 404).graph});
  cases.push_back(
      {"sbm", PatchConnect(StochasticBlockModel(48, 4, 0.3, 0.02, 505), 505)});
  return cases;
}

/// One mutated serving stack under test: a session fed updates through a
/// scheduler.
struct Variant {
  std::string label;
  std::unique_ptr<QuerySession> session;
  std::unique_ptr<BatchScheduler> scheduler;

  static std::unique_ptr<Variant> Make(const std::string& sgr_path,
                                       uint32_t concurrency) {
    auto v = std::make_unique<Variant>();
    v->label = "concurrency=" + std::to_string(concurrency);
    SAPHYRA_CHECK(
        QuerySession::Open(sgr_path, SessionOptions(), &v->session).ok());
    SchedulerOptions schopts;
    schopts.max_concurrent = concurrency;
    schopts.memo_capacity = 16;  // memo ON: stale hits would be caught
    schopts.allow_updates = true;
    v->scheduler =
        std::make_unique<BatchScheduler>(v->session.get(), schopts);
    return v;
  }
};

TEST(MutationDifferentialTest, OverlayServingMatchesFromScratchReconvert) {
  constexpr size_t kMutations = 12;
  constexpr size_t kBatch = 4;

  uint64_t stream_seed = 7000;
  for (GeneratorCase& gcase : GeneratorSweep()) {
    SCOPED_TRACE(gcase.name);
    const NodeId n = gcase.graph.num_nodes();
    GraphFiles base(gcase.graph, std::string(gcase.name) + "_base");
    EdgeSet edges = EdgesOf(gcase.graph);
    const std::vector<EdgeMutation> stream =
        MakeStream(n, edges, kMutations, ++stream_seed);
    const std::vector<QueryRequest> workload = Workload(n);

    // The sweep under test: admission concurrency.
    std::vector<std::unique_ptr<Variant>> variants;
    variants.push_back(Variant::Make(base.sgr_path, 1));
    variants.push_back(Variant::Make(base.sgr_path, 8));

    for (size_t start = 0; start < stream.size(); start += kBatch) {
      // Apply the batch to every variant (through the full request path)
      // and to the reference edge set.
      for (size_t i = start; i < std::min(stream.size(), start + kBatch);
           ++i) {
        const EdgeMutation& mut = stream[i];
        if (mut.kind == EdgeMutationKind::kInsert) {
          edges.insert({mut.u, mut.v});
        } else {
          edges.erase({mut.u, mut.v});
        }
        uint64_t fingerprint = 0;
        for (auto& variant : variants) {
          const QueryResult res = variant->scheduler->Run(
              UpdateRequest(mut.kind, mut.u, mut.v));
          ASSERT_TRUE(res.status.ok())
              << variant->label << " mutation " << i << ": "
              << res.status.ToString();
          ASSERT_EQ(res.epoch, i + 1) << variant->label;
          // Every variant must land on the same chained fingerprint, so
          // memo keys agree whatever the admission concurrency.
          if (fingerprint == 0) {
            fingerprint = res.fingerprint;
          } else {
            ASSERT_EQ(res.fingerprint, fingerprint)
                << variant->label << " mutation " << i;
          }
        }
      }

      // The oracle: re-convert the reference edge set from scratch and
      // serve the workload cold and serial.
      GraphFiles oracle_files(BuildFromEdges(n, edges),
                              std::string(gcase.name) + "_oracle");
      std::unique_ptr<QuerySession> oracle_session;
      ASSERT_TRUE(QuerySession::Open(oracle_files.sgr_path, SessionOptions(),
                                     &oracle_session)
                      .ok());
      SchedulerOptions oracle_opts;
      oracle_opts.memo_capacity = 0;
      BatchScheduler oracle(oracle_session.get(), oracle_opts);
      const std::vector<QueryResult> expected = oracle.RunBatch(workload);

      for (auto& variant : variants) {
        const std::vector<QueryResult> got =
            variant->scheduler->RunBatch(workload);
        ASSERT_EQ(got.size(), expected.size());
        for (size_t q = 0; q < got.size(); ++q) {
          ExpectBitwiseEqual(expected[q], got[q],
                             std::string(gcase.name) + " after " +
                                 std::to_string(start + kBatch) +
                                 " mutations, " + variant->label + ", " +
                                 workload[q].id);
        }
      }
    }
  }
}

}  // namespace
}  // namespace saphyra
