#include "service/session.h"

#include <utility>

#include "baselines/abra.h"
#include "baselines/kadabra.h"
#include "bc/saphyra_bc.h"
#include "closeness/closeness.h"
#include "core/saphyra.h"
#include "graph/delta_overlay.h"
#include "kpath/kpath.h"
#include "service/json_util.h"
#include "util/failpoint.h"
#include "util/hash.h"
#include "util/timer.h"

namespace saphyra {

namespace {

/// Targets of a whole-graph query: 0..n-1.
std::vector<NodeId> AllNodes(NodeId n) {
  std::vector<NodeId> all(n);
  for (NodeId v = 0; v < n; ++v) all[v] = v;
  return all;
}

/// Report `targets` (or all nodes when empty) out of a whole-network
/// estimate vector — the ABRA/KADABRA shape.
void ReportSubset(const std::vector<double>& bc,
                  const std::vector<NodeId>& targets, QueryResult* res) {
  if (targets.empty()) {
    res->nodes = AllNodes(static_cast<NodeId>(bc.size()));
    res->estimates = bc;
    return;
  }
  res->nodes = targets;
  res->estimates.reserve(targets.size());
  for (NodeId v : targets) res->estimates.push_back(bc[v]);
}

}  // namespace

uint64_t ChainMutationFingerprint(uint64_t prev, uint64_t epoch,
                                  EdgeMutationKind kind, NodeId u, NodeId v) {
  // Endpoint order is canonicalized so {"edge":[u,v]} and [v,u] chain to
  // the same epoch fingerprint — they are the same undirected mutation.
  if (u > v) std::swap(u, v);
  Fnv1a64 h;
  h.UpdateValue(prev);
  h.UpdateValue(epoch);
  h.UpdateValue(static_cast<uint8_t>(kind));
  h.UpdateValue(u);
  h.UpdateValue(v);
  return h.Digest();
}

GraphSnapshot::GraphSnapshot(Graph graph, GraphCache cache,
                             uint64_t fingerprint)
    : graph_(std::move(graph)),
      cache_(std::move(cache)),
      fingerprint_(fingerprint) {}

const IspIndex& GraphSnapshot::isp() const {
  std::call_once(isp_once_, [this] {
    fail::MaybeFault("session.index");
    isp_ = cache_.has_decomposition
               ? std::make_unique<IspIndex>(graph_, std::move(cache_))
               : std::make_unique<IspIndex>(graph_);
  });
  return *isp_;
}

Status QuerySession::Open(const std::string& graph_path,
                          const SessionOptions& options,
                          std::unique_ptr<QuerySession>* out) {
  std::unique_ptr<QuerySession> session(new QuerySession());
  session->options_ = options;
  GraphCache cache;
  SAPHYRA_RETURN_NOT_OK(LoadGraphAuto(graph_path, options.load, &cache,
                                      &session->loaded_from_cache_));
  Graph graph = std::move(cache.graph);
  if (graph.num_nodes() < 2) {
    return Status::InvalidArgument("graph too small to serve queries (n=" +
                                   std::to_string(graph.num_nodes()) + ")");
  }
  // Prefer the fingerprint the `.sgr` header recorded (free); caches
  // written before fingerprints existed, and text parses, pay one O(n+m)
  // pass here — once per session, not per query.
  const uint64_t fingerprint = cache.content_fingerprint != 0
                                   ? cache.content_fingerprint
                                   : GraphContentFingerprint(graph);
  session->current_ = std::make_shared<const GraphSnapshot>(
      std::move(graph), std::move(cache), fingerprint);
  *out = std::move(session);
  return Status::OK();
}

Status QuerySession::ApplyUpdate(const EdgeMutation& mut, UpdateOutcome* out) {
  std::lock_guard<std::mutex> update_lock(update_mu_);
  // Pinned for the whole step: the overlay borrows this epoch's CSR and
  // the repair reads its decomposition.
  std::shared_ptr<const GraphSnapshot> cur = snapshot();
  // One overlay per update, over the current epoch, gone on return: it
  // validates the mutation and materializes the next CSR, and whatever
  // fails after it leaves nothing behind to publish later.
  DeltaOverlay overlay(&cur->graph());
  SAPHYRA_RETURN_NOT_OK(mut.kind == EdgeMutationKind::kInsert
                            ? overlay.Insert(mut.u, mut.v)
                            : overlay.Remove(mut.u, mut.v));

  auto next = std::shared_ptr<GraphSnapshot>(new GraphSnapshot());
  next->graph_ = overlay.Materialize();
  next->epoch_ = cur->epoch() + 1;
  next->fingerprint_ = ChainMutationFingerprint(
      cur->fingerprint(), next->epoch_, mut.kind, mut.u, mut.v);

  // Repair the decomposition from the current epoch's (building its index
  // now if no query ever had — repairs must chain, and the repaired
  // decomposition seeds the next repair). The new epoch adopts the result
  // lazily, exactly like a `.sgr` cache load would.
  next->cache_.bcc = RepairBiconnectedComponents(
      cur->graph(), cur->isp().bcc(), next->graph_, mut);
  next->cache_.conn = ConnectedComponents(next->graph_);
  next->cache_.views = ComponentViews(next->graph_, next->cache_.bcc);
  next->cache_.tree =
      BlockCutTree::Build(next->graph_, next->cache_.bcc, next->cache_.conn);
  next->cache_.content_fingerprint = 0;  // chained, not content-derived
  next->cache_.has_decomposition = true;

  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    current_ = next;
  }
  if (out != nullptr) {
    out->epoch = next->epoch_;
    out->fingerprint = next->fingerprint_;
  }
  return Status::OK();
}

QueryResult QuerySession::Run(const QueryRequest& request) {
  std::shared_ptr<const GraphSnapshot> snap = snapshot();
  QueryRequest req = request;
  Status st = CanonicalizeQuery(snap->graph().num_nodes(), &req);
  if (!st.ok() || req.op == RequestOp::kUpdate) {
    if (st.ok()) {
      // Direct Run() is the query path; updates go through ApplyUpdate
      // (or the scheduler, which routes them there).
      st = Status::InvalidArgument(
          "update requests must be applied through the scheduler");
    }
    QueryResult res;
    res.id = request.id;
    res.estimator = request.estimator;
    res.status = st;
    return res;
  }
  if (req.deadline_ms == 0) {
    return RunCanonicalQuery(*snap, req, options_.default_threads, nullptr);
  }
  CancelToken token;
  token.TightenDeadline(Deadline::AfterMillis(req.deadline_ms));
  return RunCanonicalQuery(*snap, req, options_.default_threads, &token);
}

QueryResult RunCanonicalQuery(const GraphSnapshot& snap,
                              const QueryRequest& req,
                              uint32_t default_threads,
                              const CancelToken* cancel) {
  QueryResult res;
  res.id = req.id;
  res.estimator = req.estimator;
  const Graph& graph = snap.graph();
  SamplingParams params;
  params.epsilon = req.epsilon;
  params.delta = req.delta;
  params.seed = req.seed;
  params.top_k = req.top_k;
  params.num_threads =
      req.num_threads != 0 ? req.num_threads : default_threads;
  params.traversal = req.traversal;
  params.cancel = cancel;

  // Degraded estimator outcomes surface as results, not errors: the
  // completed-wave estimates are still deterministic, so the client gets
  // them plus the achieved bound and decides whether they are usable.
  auto mark_degraded = [&res](bool degraded, StatusCode reason,
                              double eps_achieved) {
    if (!degraded) return;
    res.degraded = true;
    res.degrade_reason = reason;
    res.epsilon_achieved = eps_achieved;
  };
  // An ε whose sample budget saturates 2^64 can never be honoured: the
  // estimator refused to sample, and the request is answered as the
  // out-of-range parameter it is.
  auto budget_saturated = [&res, &req](bool saturated) {
    if (saturated) {
      res.status = Status::InvalidArgument(
          "epsilon " + JsonNumber(req.epsilon) +
          " needs a sample budget beyond 2^64 samples");
    }
    return saturated;
  };

  Timer timer;
  switch (req.estimator) {
    case EstimatorKind::kBc:
    case EstimatorKind::kBcFull: {
      const SaphyraBcOptions opts{params, req.strategy};
      if (req.estimator == EstimatorKind::kBcFull) {
        SaphyraBcResult r = RunSaphyraBcFull(snap.isp(), opts);
        if (budget_saturated(r.budget_saturated)) break;
        res.samples_used = r.samples_used;
        mark_degraded(r.degraded, r.degrade_reason, r.epsilon_achieved);
        ReportSubset(r.bc, req.targets, &res);
      } else {
        SaphyraBcResult r = RunSaphyraBc(snap.isp(), req.targets, opts);
        if (budget_saturated(r.budget_saturated)) break;
        res.samples_used = r.samples_used;
        mark_degraded(r.degraded, r.degrade_reason, r.epsilon_achieved);
        res.nodes = req.targets;
        res.estimates = std::move(r.bc);
      }
      break;
    }
    case EstimatorKind::kKPath: {
      // The problem-class path of EstimateKPathCentrality, inlined to keep
      // the sampling diagnostics. Walk sampling has no BFS, so the
      // traversal field does not apply here.
      std::vector<NodeId> targets =
          req.targets.empty() ? AllNodes(graph.num_nodes()) : req.targets;
      KPathProblem problem(graph, targets, req.k);
      SaphyraResult r = RunSaphyra(&problem, SaphyraOptions{params});
      if (budget_saturated(r.budget_saturated)) break;
      res.samples_used = r.samples_used;
      mark_degraded(r.degraded, r.degrade_reason, r.epsilon_achieved);
      res.nodes = std::move(targets);
      res.estimates = std::move(r.combined_risks);
      break;
    }
    case EstimatorKind::kCloseness: {
      std::vector<NodeId> targets =
          req.targets.empty() ? AllNodes(graph.num_nodes()) : req.targets;
      HarmonicClosenessProblem problem(graph, targets);
      problem.set_traversal(req.traversal);
      SaphyraResult r = RunSaphyra(&problem, SaphyraOptions{params});
      if (budget_saturated(r.budget_saturated)) break;
      res.samples_used = r.samples_used;
      // RiskToCentrality is linear (×n/(n−1)), so the achieved risk bound
      // converts to centrality units through the same map.
      mark_degraded(r.degraded, r.degrade_reason,
                    problem.RiskToCentrality(r.epsilon_achieved));
      res.nodes = std::move(targets);
      res.estimates.resize(r.combined_risks.size());
      for (size_t i = 0; i < res.estimates.size(); ++i) {
        res.estimates[i] = problem.RiskToCentrality(r.combined_risks[i]);
      }
      break;
    }
    case EstimatorKind::kAbra: {
      AbraResult r = RunAbra(graph, AbraOptions{params});
      if (budget_saturated(r.budget_saturated)) break;
      res.samples_used = r.samples_used;
      mark_degraded(r.degraded, r.degrade_reason, r.epsilon_achieved);
      ReportSubset(r.bc, req.targets, &res);
      break;
    }
    case EstimatorKind::kKadabra: {
      KadabraResult r = RunKadabra(graph, KadabraOptions{params, req.strategy});
      if (budget_saturated(r.budget_saturated)) break;
      res.samples_used = r.samples_used;
      mark_degraded(r.degraded, r.degrade_reason, r.epsilon_achieved);
      ReportSubset(r.bc, req.targets, &res);
      break;
    }
  }
  res.seconds = timer.ElapsedSeconds();
  return res;
}

}  // namespace saphyra
