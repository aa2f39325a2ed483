// The closed-loop load generator: set-up, warm-up, the timed phase, the
// correctness checks and, in traced runs, the per-layer replays.

#include "serve.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "aggregate.h"
#include "baselines/kadabra.h"
#include "bc/saphyra_bc.h"
#include "bicomp/biconnected.h"
#include "bicomp/block_cut_tree.h"
#include "bicomp/component_view.h"
#include "bicomp/incremental.h"
#include "bicomp/isp.h"
#include "closeness/closeness.h"
#include "core/saphyra.h"
#include "graph/binary_io.h"
#include "graph/connectivity.h"
#include "graph/delta_overlay.h"
#include "kpath/kpath.h"
#include "service/json_util.h"
#include "service/query.h"
#include "service/scheduler.h"
#include "service/session.h"
#include "trace.h"
#include "workloads.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {

using namespace saphyra;

namespace {

constexpr int kSetups = 3;
/// Updates replayed off-line per traced run.
constexpr size_t kUpdateReplays = 8;

double Median(const std::vector<double>& v) {
  return Percentile(v, 50).value_or(0.0);
}

double PeakRssMiB() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// One served operation of the load generator.
struct Served {
  size_t line = 0;  ///< index into the script
  bool update = false;
  double latency_ms = 0;
  /// Scheduler::Run span minus QueryResult::seconds (traced runs only).
  double overhead_ms = -1;
  Outcome outcome = Outcome::kOk;
  /// Updates: whether the epoch the update started from had its index
  /// built (otherwise ApplyUpdate adopted it first).
  bool index_built_before = true;
  QueryResult result;
};

/// Latencies and counts of one stretch of the timed phase.
struct Window {
  std::vector<double> query_ms, update_ms;
  /// Queries counted for throughput, over `seconds`: for independent
  /// clients, those answered within the window, over the time to the last
  /// of them; for round traffic, all of them, over the time to finish the
  /// last started round.
  uint64_t answered = 0;
  double seconds = 0;
  double qps() const { return seconds > 0 ? answered / seconds : 0; }
};

/// The answer a direct library call gives for a canonical request,
/// plus the diagnostics the per-layer metrics need.
struct Direct {
  std::vector<NodeId> nodes;
  std::vector<double> estimates;
  uint64_t samples = 0;  ///< samples_used
  uint64_t drawn = 0;    ///< pilot + main samples
  uint64_t max_samples = 0;
  uint64_t rejected = 0;
  bool stopped_early = false;
  bool framework = false;  ///< rounds/waves are known (RunSaphyra)
  uint32_t rounds = 0, waves = 0;
  double exact_s = 0, sampling_s = 0, total_s = 0;
  double seconds = 0;  ///< span around the call
  bool degraded = false;
};

const char* LayerSpan(EstimatorKind k) {
  switch (k) {
    case EstimatorKind::kKPath: return "kpath.run";
    case EstimatorKind::kCloseness: return "closeness.run";
    case EstimatorKind::kKadabra: return "baselines.kadabra.run";
    default: return "bc.run";
  }
}

/// Call the estimator of `req` (canonical) directly on `snap`, bypassing
/// the session and the scheduler, at `threads` threads.
Direct RunDirect(const GraphSnapshot& snap, const QueryRequest& req,
                 uint32_t threads, Tracer* tracer, int64_t parent) {
  Direct d;
  const Graph& g = snap.graph();
  ScopedSpan span(tracer, LayerSpan(req.estimator), parent);
  const int64_t t0 = NowNs();
  SaphyraOptions fw;
  fw.epsilon = req.epsilon;
  fw.delta = req.delta;
  fw.seed = req.seed;
  fw.top_k = req.top_k;
  fw.num_threads = threads;
  auto from_framework = [&d](const SaphyraResult& r) {
    d.samples = r.samples_used;
    d.drawn = r.samples_used + r.pilot_samples;
    d.max_samples = r.max_samples;
    d.stopped_early = r.stopped_early;
    d.framework = true;
    d.rounds = r.rounds_used;
    d.waves = r.waves_used;
    d.degraded = r.degraded;
  };
  switch (req.estimator) {
    case EstimatorKind::kBc:
    case EstimatorKind::kBcFull: {
      SaphyraBcOptions o;
      o.epsilon = req.epsilon;
      o.delta = req.delta;
      o.seed = req.seed;
      o.top_k = req.top_k;
      o.strategy = req.strategy;
      o.traversal = req.traversal;
      o.num_threads = threads;
      SaphyraBcResult r = RunSaphyraBc(snap.isp(), req.targets, o);
      d.nodes = req.targets;
      d.estimates = std::move(r.bc);
      d.samples = r.samples_used;
      d.drawn = r.samples_used + r.pilot_samples;
      d.max_samples = r.max_samples;
      d.rejected = r.rejected_samples;
      d.stopped_early = r.stopped_early;
      d.exact_s = r.exact_seconds;
      d.sampling_s = r.sampling_seconds;
      d.total_s = r.total_seconds;
      d.degraded = r.degraded;
      break;
    }
    case EstimatorKind::kKPath: {
      KPathProblem problem(g, req.targets, req.k);
      SaphyraResult r = RunSaphyra(&problem, fw);
      from_framework(r);
      d.nodes = req.targets;
      d.estimates = std::move(r.combined_risks);
      break;
    }
    case EstimatorKind::kCloseness: {
      HarmonicClosenessProblem problem(g, req.targets);
      problem.set_traversal(req.traversal);
      SaphyraResult r = RunSaphyra(&problem, fw);
      from_framework(r);
      d.nodes = req.targets;
      for (double risk : r.combined_risks) {
        d.estimates.push_back(problem.RiskToCentrality(risk));
      }
      break;
    }
    case EstimatorKind::kKadabra: {
      KadabraOptions o;
      o.epsilon = req.epsilon;
      o.delta = req.delta;
      o.seed = req.seed;
      o.top_k = req.top_k;
      o.strategy = req.strategy;
      o.traversal = req.traversal;
      o.num_threads = threads;
      KadabraResult r = RunKadabra(g, o);
      d.samples = d.drawn = r.samples_used;
      d.stopped_early = r.stopped_early;
      d.degraded = r.degraded;
      d.nodes = req.targets;
      for (NodeId v : req.targets) d.estimates.push_back(r.bc[v]);
      break;
    }
    case EstimatorKind::kAbra:
      break;  // no workload sends ABRA
  }
  d.seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  return d;
}

/// The served line with its execution-only fields (serve time, memo
/// mode) normalized, so two answers compare byte for byte.
std::string AnswerBytes(QueryResult r) {
  r.seconds = 0;
  r.mode = ServeMode::kComputed;
  return SerializeQueryResult(r);
}

bool SameAnswer(const QueryResult& served, const QueryResult& expected) {
  return served.status.ok() && expected.status.ok() &&
         AnswerBytes(served) == AnswerBytes(expected);
}

QueryResult AsResult(const QueryResult& like, const Direct& d) {
  QueryResult r = like;
  r.status = Status::OK();
  r.nodes = d.nodes;
  r.estimates = d.estimates;
  r.samples_used = d.samples;
  r.degraded = d.degraded;
  r.degrade_reason = StatusCode::kOk;
  r.epsilon_achieved = 0;
  return r;
}

/// JSON number with every digit that round-trips.
std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name, unit;
  double value = 0;
};

class LoadRun {
 public:
  LoadRun(const WorkloadSpec& spec, const ServeOptions& opt)
      : spec_(spec), opt_(opt) {}

  int Run();

 private:
  // --- phases ------------------------------------------------------------
  bool Setup();
  void Warmup();
  Window Timed(double seconds);
  void PostUpdates();
  /// The served answers checked against direct library calls.
  std::vector<const Served*> CheckSample() const;
  void CheckSampled();
  void CheckFinalEpoch();
  void Replays();

  Served ServeLine(size_t line, const char* phase);
  /// Run `fns` on one thread each (sequentially when tracing, so replay
  /// spans do not overlap).
  void RunAll(std::vector<std::function<void()>>* fns);
  void Check(bool ok, const std::string& what);
  void ReplayUpdates();
  void LayerMetrics(std::vector<Metric>* out);
  void WriteResults(const std::vector<Metric>& e2e,
                    const std::vector<Metric>& layers,
                    const std::vector<double>& query_ms,
                    const std::vector<double>& update_ms, bool correct);
  void PrintSummary(const std::vector<Metric>& e2e,
                    const std::vector<Metric>& layers,
                    const std::vector<double>& query_ms,
                    const std::vector<double>& update_ms,
                    const OpCounts& all) const;

  const WorkloadSpec& spec_;
  ServeOptions opt_;
  Tracer tracer_;
  std::vector<ScriptLine> script_;
  /// Script line indices per section and client.
  std::map<std::string, std::vector<std::vector<size_t>>> lines_;
  std::string text_path_;
  uint64_t text_bytes_ = 0;

  std::unique_ptr<QuerySession> session_;
  std::unique_ptr<BatchScheduler> scheduler_;
  std::vector<double> setup_s_;

  std::mutex mu_;  // guards counts_ and served_
  std::map<std::string, OpCounts> counts_;  // by phase
  std::vector<Served> served_;               // timed, update and check ops
  std::vector<std::string> problems_;  // failed operations, described

  // Timed-phase state, kept across the two halves of a traced run.
  std::vector<size_t> cursor_;
  size_t round_ = 0;
  bool script_exhausted_ = false;
  Window untraced_, traced_;
  std::vector<double> post_update_ms_;
  SchedulerStats timed_stats_;
  double peak_rss_mib_ = 0;

  /// The loaded epoch, pinned before any update.
  std::shared_ptr<const GraphSnapshot> epoch0_;
  std::vector<size_t> applied_updates_;  // script lines, in order

  // Traced replays.
  std::vector<Direct> bc1_, bc4_, framework_;
  std::map<EstimatorKind, std::vector<Direct>> by_estimator_;
  std::vector<double> apply_us_, materialize_ms_, repair_ms_, adopt_ms_,
      finalize_ms_, self_ms_, dirty_arcs_;
  uint64_t fallbacks_ = 0;
};

void LoadRun::Check(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  counts_["check"].Add(ok ? Outcome::kOk : Outcome::kMismatch);
  if (!ok) problems_.push_back(what);
}

void LoadRun::RunAll(std::vector<std::function<void()>>* fns) {
  if (tracer_.enabled()) {
    for (auto& f : *fns) f();
    return;
  }
  std::vector<std::thread> threads;
  for (auto& f : *fns) threads.emplace_back(f);
  for (auto& t : threads) t.join();
}

bool LoadRun::Setup() {
  const std::string sgr = opt_.work_dir + "/graph.sgr";
  Status st;
  for (int i = 0; i < kSetups; ++i) {
    session_.reset();
    const int64_t t0 = NowNs();
    ScopedSpan root(&tracer_, "bench.setup");
    {
      GraphCache text;
      {
        ScopedSpan s(&tracer_, "graph.io.parse", root.id());
        LoadGraphOptions lo;
        lo.use_cache = false;
        st = LoadGraphAuto(text_path_, lo, &text);
      }
      if (!st.ok()) break;
      std::unique_ptr<IspIndex> isp;
      {
        ScopedSpan s(&tracer_, "bicomp.decompose", root.id());
        isp = std::make_unique<IspIndex>(text.graph);
      }
      ScopedSpan s(&tracer_, "graph.binary_io.write", root.id());
      SgrWriteOptions wo;
      wo.source_path = text_path_;
      st = WriteSgr(sgr, text.graph, &isp->bcc(), &isp->conn(), &isp->views(),
                    &isp->tree(), wo);
    }
    if (!st.ok()) break;
    {
      ScopedSpan s(&tracer_, "service.session.open", root.id());
      SessionOptions so;
      st = QuerySession::Open(sgr, so, &session_);
    }
    if (!st.ok()) break;
    {
      ScopedSpan s(&tracer_, "bicomp.isp.warm", root.id());
      session_->isp();
    }
    setup_s_.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "servebench: set-up failed: %s\n",
                 st.ToString().c_str());
    return false;
  }
  SchedulerOptions so;
  so.max_concurrent = spec_.max_concurrent;
  so.allow_updates = true;
  scheduler_ = std::make_unique<BatchScheduler>(session_.get(), so);
  return true;
}

Served LoadRun::ServeLine(size_t line, const char* phase) {
  Served s;
  s.line = line;
  ScopedSpan root(&tracer_, "bench.request", -1, line + 1);
  const int64_t t0 = NowNs();
  QueryRequest req;
  Status st;
  {
    ScopedSpan span(&tracer_, "service.query.parse", root.id(), line + 1);
    st = ParseQueryRequest(script_[line].json, &req);
  }
  s.update = req.op == RequestOp::kUpdate;
  // Updates are only sent while no query runs, so no index build races
  // with this read.
  if (s.update) s.index_built_before = session_->index_built();
  int64_t run_ns = 0;
  if (st.ok()) {
    const int64_t id =
        tracer_.Begin("service.scheduler.run", root.id(), line + 1);
    s.result = scheduler_->Run(req);
    run_ns = tracer_.End(id);
  } else {
    s.result.status = st;
  }
  std::string bytes;
  {
    ScopedSpan span(&tracer_, "service.query.serialize", root.id(), line + 1);
    bytes = SerializeQueryResult(s.result);
  }
  s.latency_ms = static_cast<double>(NowNs() - t0) * 1e-6;
  if (run_ns > 0) {
    s.overhead_ms = static_cast<double>(run_ns) * 1e-6 - s.result.seconds * 1e3;
  }
  s.outcome = bytes.empty() ? Outcome::kError : Classify(s.result);
  std::lock_guard<std::mutex> lock(mu_);
  counts_[phase].Add(s.outcome);
  if (s.outcome != Outcome::kOk) {
    problems_.push_back(std::string(OutcomeName(s.outcome)) + " answer to " +
                        script_[line].json.substr(0, 80) + ": " +
                        s.result.status.ToString());
  }
  return s;
}

void LoadRun::Warmup() {
  const auto& per_client = lines_["warmup"];
  std::vector<std::function<void()>> fns;
  for (const auto& lines : per_client) {
    fns.push_back([this, &lines] {
      for (size_t l : lines) ServeLine(l, "warmup");
    });
  }
  std::vector<std::thread> threads;
  for (auto& f : fns) threads.emplace_back(f);
  for (auto& t : threads) t.join();
}

Window LoadRun::Timed(double seconds) {
  Window w;
  const auto& timed = lines_["timed"];
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<Served> done;
  int64_t last_in_window = start;
  auto keep = [&](Served s) {
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    (s.update ? w.update_ms : w.query_ms).push_back(s.latency_ms);
    if (!s.update && (now <= deadline || spec_.traffic != Traffic::kClients)) {
      ++w.answered;
      if (now <= deadline) last_in_window = std::max(last_in_window, now);
    }
    done.push_back(std::move(s));
  };
  switch (spec_.traffic) {
    case Traffic::kClients: {
      std::vector<std::thread> clients;
      for (uint32_t c = 0; c < timed.size(); ++c) {
        clients.emplace_back([&, c] {
          // A client that reaches the end of its script starts over.
          while (NowNs() < deadline) {
            keep(ServeLine(timed[c][cursor_[c]++ % timed[c].size()], "timed"));
          }
        });
      }
      for (auto& t : clients) t.join();
      break;
    }
    case Traffic::kReadWriteRounds: {
      const auto& writes = lines_["write"][0];
      const uint32_t k = spec_.round_queries;
      while (NowNs() < deadline) {
        if ((round_ + 1) * k > timed[0].size()) {
          script_exhausted_ = true;
          break;
        }
        std::vector<std::thread> readers;
        for (uint32_t c = 0; c < timed.size(); ++c) {
          readers.emplace_back([&, c] {
            for (uint32_t i = 0; i < k; ++i) {
              keep(ServeLine(timed[c][round_ * k + i], "timed"));
            }
          });
        }
        for (auto& t : readers) t.join();
        for (uint32_t i = 0; i < spec_.write_batch; ++i) {
          const size_t line = writes[round_ * spec_.write_batch + i];
          Served s = ServeLine(line, "timed");
          if (s.outcome == Outcome::kOk) applied_updates_.push_back(line);
          keep(std::move(s));
        }
        ++round_;
      }
      break;
    }
    case Traffic::kRounds: {
      const auto& lines = timed[0];
      while (NowNs() < deadline) {
        if ((round_ + 1) * spec_.round_queries > lines.size()) {
          script_exhausted_ = true;
          break;
        }
        for (uint32_t i = 0; i < spec_.round_queries; ++i) {
          keep(ServeLine(lines[round_ * spec_.round_queries + i], "timed"));
        }
        ++round_;
      }
      break;
    }
  }
  const int64_t end =
      spec_.traffic == Traffic::kClients ? last_in_window : NowNs();
  w.seconds = static_cast<double>(end - start) * 1e-9;
  std::lock_guard<std::mutex> lock(mu_);
  for (Served& s : done) served_.push_back(std::move(s));
  return w;
}

void LoadRun::PostUpdates() {
  if (lines_.count("update") == 0) return;
  for (size_t line : lines_["update"][0]) {
    Served s = ServeLine(line, "update");
    if (s.outcome == Outcome::kOk) applied_updates_.push_back(line);
    post_update_ms_.push_back(s.latency_ms);
    std::lock_guard<std::mutex> lock(mu_);
    served_.push_back(std::move(s));
  }
}

std::vector<const Served*> LoadRun::CheckSample() const {
  std::vector<size_t> picks;
  const auto& timed = lines_.at("timed");
  switch (spec_.traffic) {
    case Traffic::kClients:
      // Clients 0 and 1: the first answer, and the first answer to a
      // request that repeats an earlier one verbatim (a memo hit, normally).
      for (uint32_t c = 0; c < 2; ++c) {
        picks.push_back(timed[c][0]);
        std::set<std::string> seen;
        for (size_t l : timed[c]) {
          if (!seen.insert(script_[l].json).second) {
            picks.push_back(l);
            break;
          }
        }
      }
      break;
    case Traffic::kReadWriteRounds:
      // The first read of every reader; round 0 runs before any update.
      for (const auto& lines : timed) picks.push_back(lines[0]);
      break;
    case Traffic::kRounds:
      // The whole first round: one answer of every estimator.
      for (uint32_t i = 0; i < spec_.round_queries; ++i) {
        picks.push_back(timed[0][i]);
      }
      break;
  }
  std::vector<const Served*> sample;
  for (size_t l : picks) {
    for (const Served& s : served_) {
      if (s.line == l) {
        sample.push_back(&s);
        break;
      }
    }
  }
  return sample;
}

void LoadRun::CheckSampled() {
  // Every sampled answer was served from epoch 0, so each is compared with
  // a direct library call at one thread on that epoch. Repeats share one
  // direct call.
  const std::vector<const Served*> sample = CheckSample();
  std::map<std::string, QueryRequest> canon;  // by request line
  for (const Served* s : sample) {
    QueryRequest req;
    Status st = ParseQueryRequest(script_[s->line].json, &req);
    if (st.ok()) st = CanonicalizeQuery(epoch0_->graph().num_nodes(), &req);
    if (!st.ok()) {
      Check(false, "unparsable check request " + s->result.id);
      continue;
    }
    canon.emplace(script_[s->line].json, req);
  }
  std::map<std::string, Direct> direct;
  std::vector<std::function<void()>> fns;
  for (const auto& [json, req] : canon) {
    Direct* out = &direct[json];
    fns.push_back([this, out, &req = req] {
      ScopedSpan root(&tracer_, "bench.replay");
      *out = RunDirect(*epoch0_, req, 1, &tracer_, root.id());
    });
  }
  RunAll(&fns);
  for (const Served* s : sample) {
    auto it = direct.find(script_[s->line].json);
    if (it == direct.end()) continue;
    Check(SameAnswer(s->result, AsResult(s->result, it->second)),
          "served " + s->result.id + " differs from the direct call");
  }
  for (const auto& [json, req] : canon) {
    const Direct& d = direct[json];
    if (req.estimator == EstimatorKind::kBc) {
      bc1_.push_back(d);
      if (tracer_.enabled()) {
        ScopedSpan root(&tracer_, "bench.replay");
        bc4_.push_back(RunDirect(*epoch0_, req, 4, &tracer_, root.id()));
      }
    } else {
      by_estimator_[req.estimator].push_back(d);
    }
    if (d.framework) framework_.push_back(d);
  }
}

void LoadRun::CheckFinalEpoch() {
  // The served final epoch against a fresh session on a from-scratch
  // conversion of the edge list with every applied update replayed on it.
  const auto& checks = lines_["check"][0];
  std::vector<Served> served(checks.size());
  {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < checks.size(); ++i) {
      threads.emplace_back(
          [&, i] { served[i] = ServeLine(checks[i], "check-served"); });
    }
    for (auto& t : threads) t.join();
  }
  Check(session_->epoch() == applied_updates_.size(),
        "final epoch " + std::to_string(session_->epoch()) + " != " +
            std::to_string(applied_updates_.size()) + " applied updates");
  std::set<std::pair<NodeId, NodeId>> edges;
  {
    std::ifstream in(text_path_);
    std::string l;
    while (std::getline(in, l)) {
      if (l.empty() || l[0] == '#') continue;
      std::istringstream is(l);
      NodeId u = 0, v = 0;
      is >> u >> v;
      edges.insert({std::min(u, v), std::max(u, v)});
    }
  }
  for (size_t line : applied_updates_) {
    QueryRequest req;
    ParseQueryRequest(script_[line].json, &req);
    const std::pair<NodeId, NodeId> e = {std::min(req.edge_u, req.edge_v),
                                         std::max(req.edge_u, req.edge_v)};
    if (req.action == EdgeMutationKind::kInsert) {
      edges.insert(e);
    } else {
      edges.erase(e);
    }
  }
  // Raw ids: no update isolates a node, so the id space is unchanged.
  const std::string mutated = opt_.work_dir + "/mutated.txt";
  {
    std::ofstream out(mutated);
    for (auto [u, v] : edges) out << u << '\t' << v << '\n';
  }
  GraphCache text;
  LoadGraphOptions lo;
  lo.use_cache = false;
  lo.compact_ids = false;
  Status st = LoadGraphAuto(mutated, lo, &text);
  std::unique_ptr<QuerySession> fresh;
  if (st.ok()) {
    IspIndex isp(text.graph);
    SgrWriteOptions wo;
    wo.source_path = mutated;
    wo.compact_ids = false;
    st = WriteSgr(mutated + ".sgr", text.graph, &isp.bcc(), &isp.conn(),
                  &isp.views(), &isp.tree(), wo);
  }
  if (st.ok()) {
    SessionOptions so;
    so.load.compact_ids = false;
    st = QuerySession::Open(mutated + ".sgr", so, &fresh);
  }
  if (!st.ok()) {
    Check(false, "re-conversion failed: " + st.ToString());
    return;
  }
  std::vector<QueryResult> expected(checks.size());
  std::vector<std::function<void()>> fns;
  for (size_t i = 0; i < checks.size(); ++i) {
    fns.push_back([&, i] {
      QueryRequest req;
      ParseQueryRequest(script_[checks[i]].json, &req);
      expected[i] = fresh->Run(req);
    });
  }
  RunAll(&fns);
  for (size_t i = 0; i < checks.size(); ++i) {
    Check(SameAnswer(served[i].result, expected[i]),
          "final-epoch answer " + served[i].result.id +
              " differs from the re-converted graph");
  }
}

void LoadRun::ReplayUpdates() {
  // Served update latencies, in application order.
  std::map<size_t, const Served*> by_line;
  for (const Served& s : served_) {
    if (s.update) by_line[s.line] = &s;
  }
  DeltaOverlay overlay(&epoch0_->graph());
  Graph prev_graph;
  const Graph* prev = &epoch0_->graph();
  BiconnectedComponents prev_bcc = epoch0_->isp().bcc();
  std::vector<double> adopt_by_epoch = {0.0};  // epoch 0: built at set-up
  const size_t n = std::min(kUpdateReplays, applied_updates_.size());
  for (size_t i = 0; i < n; ++i) {
    const size_t line = applied_updates_[i];
    QueryRequest req;
    ParseQueryRequest(script_[line].json, &req);
    const EdgeMutation mut{req.action, req.edge_u, req.edge_v};
    ScopedSpan root(&tracer_, "bench.replay", -1, line + 1);
    int64_t id =
        tracer_.Begin("graph.delta_overlay.apply", root.id(), line + 1);
    Status st = mut.kind == EdgeMutationKind::kInsert
                    ? overlay.Insert(mut.u, mut.v)
                    : overlay.Remove(mut.u, mut.v);
    const double apply = static_cast<double>(tracer_.End(id)) * 1e-9;
    if (!st.ok()) {
      Check(false, "replayed update " + req.id + ": " + st.ToString());
      return;
    }
    id = tracer_.Begin("graph.delta_overlay.materialize", root.id(), line + 1);
    Graph next = overlay.Materialize();
    const double materialize = static_cast<double>(tracer_.End(id)) * 1e-9;
    IncrementalBicompStats stats;
    id = tracer_.Begin("bicomp.incremental.repair", root.id(), line + 1);
    GraphCache cache;
    cache.bcc = RepairBiconnectedComponents(*prev, prev_bcc, next, mut, {},
                                            &stats);
    const double repair = static_cast<double>(tracer_.End(id)) * 1e-9;
    // What ApplyUpdate derives from the repaired decomposition.
    id = tracer_.Begin("bicomp.finalize", root.id(), line + 1);
    cache.conn = ConnectedComponents(next);
    cache.views = ComponentViews(next, cache.bcc);
    cache.tree = BlockCutTree::Build(next, cache.bcc, cache.conn);
    cache.has_decomposition = true;
    const double finalize = static_cast<double>(tracer_.End(id)) * 1e-9;
    prev_bcc = cache.bcc;
    id = tracer_.Begin("bicomp.isp.adopt", root.id(), line + 1);
    { IspIndex adopted(next, std::move(cache)); }
    const double adopt = static_cast<double>(tracer_.End(id)) * 1e-9;
    adopt_by_epoch.push_back(adopt);
    prev_graph = std::move(next);
    prev = &prev_graph;

    apply_us_.push_back(apply * 1e6);
    materialize_ms_.push_back(materialize * 1e3);
    repair_ms_.push_back(repair * 1e3);
    finalize_ms_.push_back(finalize * 1e3);
    adopt_ms_.push_back(adopt * 1e3);
    dirty_arcs_.push_back(static_cast<double>(stats.dirty_arcs));
    if (stats.fell_back) ++fallbacks_;
    // Served latency minus the replayed overlay, repair and adopt calls;
    // ApplyUpdate adopts the epoch it starts from when no query did.
    const Served* s = by_line[line];
    const double adopted_inside = s->index_built_before ? 0 : adopt_by_epoch[i];
    self_ms_.push_back(s->latency_ms -
                       (apply + materialize + repair + adopted_inside) * 1e3);
  }
}

void LoadRun::Replays() {
  ScopedSpan root(&tracer_, "bench.replay");
  {
    ScopedSpan s(&tracer_, "bicomp.decompose_serial", root.id());
    ComputeBiconnectedComponents(epoch0_->graph());
  }
  // Estimator layers the workload's own traffic does not reach get a
  // fixed probe on this workload's graph, so every layer reports.
  Rng rng(opt_.seed ^ 0xB0B);
  std::vector<NodeId> targets;
  std::set<NodeId> seen;
  while (targets.size() < 50) {
    const NodeId v = static_cast<NodeId>(
        rng.UniformInt(epoch0_->graph().num_nodes()));
    if (seen.insert(v).second) targets.push_back(v);
  }
  const std::pair<EstimatorKind, double> probes[] = {
      {EstimatorKind::kKPath, 0.02},
      {EstimatorKind::kCloseness, 0.1},
      {EstimatorKind::kKadabra, 0.3}};
  for (auto [kind, eps] : probes) {
    if (by_estimator_.count(kind)) continue;
    QueryRequest req;
    req.estimator = kind;
    req.epsilon = eps;
    req.seed = opt_.seed;
    req.targets = targets;
    CanonicalizeQuery(epoch0_->graph().num_nodes(), &req);
    Direct d = RunDirect(*epoch0_, req, 1, &tracer_, root.id());
    if (d.framework) framework_.push_back(d);
    by_estimator_[kind].push_back(std::move(d));
  }
  ReplayUpdates();
}

void LoadRun::LayerMetrics(std::vector<Metric>* m) {
  auto add = [m](const std::string& name, const std::string& unit, double v) {
    m->push_back({name, unit, v});
  };
  auto span_median = [this](const std::string& name, double scale) {
    return Median(tracer_.Durations(name)) * scale;
  };
  const double parse_s = span_median("graph.io.parse", 1);
  add("graph.io.parse_s", "s", parse_s);
  add("graph.io.parse_mb_per_s", "MB/s",
      parse_s > 0 ? static_cast<double>(text_bytes_) / 1e6 / parse_s : 0);
  add("graph.binary_io.write_s", "s", span_median("graph.binary_io.write", 1));
  add("graph.delta_overlay.apply_us", "us", Median(apply_us_));
  add("graph.delta_overlay.materialize_ms", "ms", Median(materialize_ms_));
  add("bicomp.decompose_s", "s", span_median("bicomp.decompose", 1));
  add("bicomp.decompose_serial_s", "s",
      span_median("bicomp.decompose_serial", 1));
  add("bicomp.isp.warm_s", "s", span_median("bicomp.isp.warm", 1));
  add("bicomp.isp.adopt_ms", "ms", Median(adopt_ms_));
  add("bicomp.incremental.repair_ms", "ms", Median(repair_ms_));
  add("bicomp.incremental.fallback_frac", "ratio",
      repair_ms_.empty()
          ? 0
          : static_cast<double>(fallbacks_) / repair_ms_.size());
  add("bicomp.incremental.dirty_arcs", "count", Median(dirty_arcs_));
  add("bicomp.finalize_ms", "ms", Median(finalize_ms_));
  add("service.session.open_s", "s", span_median("service.session.open", 1));
  add("service.session.update_self_ms", "ms", Median(self_ms_));
  add("service.query.parse_us", "us", span_median("service.query.parse", 1e6));
  add("service.query.serialize_us", "us",
      span_median("service.query.serialize", 1e6));
  std::vector<double> overhead;
  for (const Served& s : served_) {
    if (!s.update && s.overhead_ms >= 0) overhead.push_back(s.overhead_ms);
  }
  add("service.scheduler.overhead_ms", "ms", Median(overhead));
  const uint64_t queries = timed_stats_.queries - timed_stats_.updates;
  add("service.scheduler.memo_hit_ratio", "ratio",
      queries ? static_cast<double>(timed_stats_.memo_hits) / queries : 0);
  add("service.scheduler.computed", "count",
      static_cast<double>(timed_stats_.computed));
  add("service.scheduler.dedup_hits", "count",
      static_cast<double>(timed_stats_.dedup_hits));

  std::vector<double> exact, setup, sampling;
  double sampling_s = 0, drawn = 0, rejected = 0;
  for (const Direct& d : bc1_) {
    exact.push_back(d.exact_s * 1e3);
    sampling.push_back(d.sampling_s * 1e3);
    setup.push_back((d.total_s - d.exact_s - d.sampling_s) * 1e3);
    sampling_s += d.sampling_s;
    drawn += static_cast<double>(d.drawn);
    rejected += static_cast<double>(d.rejected);
  }
  add("bc.exact_ms", "ms", Median(exact));
  add("bc.setup_ms", "ms", Median(setup));
  add("bc.sampling_ms", "ms", Median(sampling));
  add("bc.us_per_sample", "us", drawn > 0 ? sampling_s * 1e6 / drawn : 0);
  add("bc.accept_ratio", "ratio", drawn > 0 ? drawn / (drawn + rejected) : 0);

  double samples = 0, max_samples = 0, early = 0, runs = 0;
  for (const auto* set : {&bc1_, &framework_}) {
    for (const Direct& d : *set) {
      samples += static_cast<double>(d.samples);
      max_samples += static_cast<double>(d.max_samples);
      early += d.stopped_early ? 1 : 0;
      runs += 1;
    }
  }
  double rounds = 0, waves = 0;
  for (const Direct& d : framework_) {
    rounds += d.rounds;
    waves += d.waves;
  }
  add("core.samples_per_query", "count", runs ? samples / runs : 0);
  add("core.adaptive_reduction", "ratio", samples ? max_samples / samples : 0);
  add("core.stopped_early_frac", "ratio", runs ? early / runs : 0);
  add("core.rounds_used", "count",
      framework_.empty() ? 0 : rounds / framework_.size());
  add("core.waves_used", "count",
      framework_.empty() ? 0 : waves / framework_.size());
  double t1 = 0, t4 = 0;
  for (const Direct& d : bc1_) t1 += d.seconds;
  for (const Direct& d : bc4_) t4 += d.seconds;
  add("core.thread_speedup", "ratio", t4 > 0 ? t1 / t4 : 0);

  const std::pair<EstimatorKind, const char*> layers[] = {
      {EstimatorKind::kCloseness, "closeness"},
      {EstimatorKind::kKPath, "kpath"},
      {EstimatorKind::kKadabra, "baselines.kadabra"}};
  for (auto [kind, name] : layers) {
    std::vector<double> ms;
    double secs = 0, drawn_k = 0;
    for (const Direct& d : by_estimator_[kind]) {
      ms.push_back(d.seconds * 1e3);
      secs += d.seconds;
      drawn_k += static_cast<double>(d.drawn);
    }
    add(std::string(name) + ".ms_per_query", "ms", Median(ms));
    add(std::string(name) + ".us_per_sample", "us",
        drawn_k > 0 ? secs * 1e6 / drawn_k : 0);
  }

  add("trace.overhead.query_p50_ms", "ms",
      Median(traced_.query_ms) - Median(untraced_.query_ms));
  add("trace.overhead.qps", "1/s", traced_.qps() - untraced_.qps());
  const std::map<std::string, double> self =
      SelfSecondsByLayer(tracer_.spans());
  for (const char* layer : {"bench", "graph", "bicomp", "service", "bc",
                            "kpath", "closeness", "baselines"}) {
    auto it = self.find(layer);
    add(std::string("trace.self_s.") + layer, "s",
        it == self.end() ? 0 : it->second);
  }
}

unsigned Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return std::thread::hardware_concurrency();
}

void LoadRun::WriteResults(const std::vector<Metric>& e2e,
                          const std::vector<Metric>& layers,
                          const std::vector<double>& query_ms,
                          const std::vector<double>& update_ms, bool correct) {
  const Graph& g = epoch0_->graph();
  std::ostringstream j;
  j << "{\n  \"workload\": \"" << spec_.name << "\", \"seed\": " << opt_.seed
    << ", \"seconds\": " << Num(opt_.seconds) << ", \"trace\": "
    << (tracer_.enabled() ? 1 : 0) << ",\n  \"host\": {\"hardware_threads\": "
    << std::thread::hardware_concurrency() << ", \"nproc\": " << Nproc()
    << ", \"build_type\": \"" << SERVEBENCH_BUILD_TYPE << "\"},\n"
    << "  \"graph\": {\"n\": " << g.num_nodes() << ", \"m\": " << g.num_edges()
    << ", \"bytes\": " << text_bytes_ << "},\n  \"correct\": "
    << (correct ? "true" : "false") << ", \"script_exhausted\": "
    << (script_exhausted_ ? "true" : "false") << ",\n  \"phases\": {";
  bool first = true;
  for (const auto& [phase, c] : counts_) {
    j << (first ? "" : ", ") << "\"" << phase << "\": {\"attempted\": "
      << c.attempted << ", \"succeeded\": " << c.succeeded()
      << ", \"failed\": " << c.failed() << "}";
    first = false;
  }
  j << "},\n  \"failures\": [";
  for (size_t i = 0; i < problems_.size(); ++i) {
    j << (i ? ", " : "") << JsonQuote(problems_[i]);
  }
  j << "],\n  \"samples\": {";
  auto array = [&j](const char* name, const std::vector<double>& v) {
    j << "\"" << name << "\": [";
    for (size_t i = 0; i < v.size(); ++i) j << (i ? ", " : "") << Num(v[i]);
    j << "]";
  };
  array("setup_s", setup_s_);
  j << ", ";
  array("query_ms", query_ms);
  j << ", ";
  array("update_ms", update_ms);
  j << "},\n  \"metrics\": {";
  first = true;
  for (const auto* set : {&e2e, &layers}) {
    for (const Metric& m : *set) {
      j << (first ? "\n    " : ",\n    ") << "\"" << m.name
        << "\": {\"value\": " << Num(m.value) << ", \"unit\": \"" << m.unit
        << "\"}";
      first = false;
    }
  }
  j << "\n  }\n}\n";
  std::ofstream(opt_.results_path) << j.str();
  if (!tracer_.enabled()) return;
  std::ofstream spans(opt_.spans_path);
  spans << "[\n";
  const std::vector<Span> all = tracer_.spans();
  for (size_t i = 0; i < all.size(); ++i) {
    spans << (i ? ",\n" : "") << "{\"id\": " << i << ", \"name\": \""
          << all[i].name << "\", \"start_ns\": " << all[i].start_ns
          << ", \"end_ns\": " << all[i].end_ns << ", \"parent\": "
          << all[i].parent << ", \"request\": " << all[i].request << "}";
  }
  spans << "\n]\n";
}

void LoadRun::PrintSummary(const std::vector<Metric>& e2e,
                          const std::vector<Metric>& layers,
                          const std::vector<double>& query_ms,
                          const std::vector<double>& update_ms,
                          const OpCounts& all) const {
  const Graph& g = epoch0_->graph();
  std::printf("servebench %s seed=%llu seconds=%g trace=%d\n", spec_.name,
              static_cast<unsigned long long>(opt_.seed), opt_.seconds,
              opt_.trace ? 1 : 0);
  std::printf("host: hardware_threads=%u nproc=%u build=%s\n",
              std::thread::hardware_concurrency(), Nproc(),
              SERVEBENCH_BUILD_TYPE);
  std::printf("graph: n=%u m=%llu bytes=%llu\n", g.num_nodes(),
              static_cast<unsigned long long>(g.num_edges()),
              static_cast<unsigned long long>(text_bytes_));
  for (const auto& [phase, c] : counts_) {
    std::printf("phase %-13s attempted=%llu succeeded=%llu failed=%llu\n",
                phase.c_str(), static_cast<unsigned long long>(c.attempted),
                static_cast<unsigned long long>(c.succeeded()),
                static_cast<unsigned long long>(c.failed()));
  }
  for (const std::string& m : problems_) {
    std::printf("FAILED %s\n", m.c_str());
  }
  if (script_exhausted_) {
    std::printf("note: the script ran out of rounds before the deadline\n");
  }
  for (const Metric& m : e2e) {
    std::printf("%-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  auto tail = [](const char* name, const std::vector<double>& v) {
    const std::optional<double> p90 = TailPercentile(v, 90);
    if (p90) {
      std::printf("%-34s %14.4f ms (n=%zu)\n", name, *p90, v.size());
    } else {
      std::printf("%-34s %14s    (n=%zu; needs %zu beyond p90)\n", name, "n/a",
                  v.size(), kMinSamplesBeyondTail);
    }
  };
  tail("query_p90_ms", query_ms);
  tail("update_p90_ms", update_ms);
  std::printf("%-34s %14.4f ratio (%llu of %llu)\n", "failed_frac",
              all.attempted ? static_cast<double>(all.failed()) / all.attempted
                            : 0.0,
              static_cast<unsigned long long>(all.failed()),
              static_cast<unsigned long long>(all.attempted));
  for (const Metric& m : layers) {
    std::printf("%-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int LoadRun::Run() {
  tracer_.set_enabled(opt_.trace);
  text_path_ = opt_.input_dir + "/graph.txt";
  std::error_code ec;
  text_bytes_ = std::filesystem::file_size(text_path_, ec);
  if (ec || !ReadScript(opt_.input_dir, &script_)) {
    std::fprintf(stderr, "servebench: cannot read inputs in %s\n",
                 opt_.input_dir.c_str());
    return 2;
  }
  for (size_t i = 0; i < script_.size(); ++i) {
    auto& per_client = lines_[script_[i].section];
    if (per_client.size() <= script_[i].client) {
      per_client.resize(script_[i].client + 1);
    }
    per_client[script_[i].client].push_back(i);
  }
  std::filesystem::create_directories(opt_.work_dir);
  if (!Setup()) return 2;
  epoch0_ = session_->snapshot();
  Warmup();

  // The timed phase. A traced run measures its first half untraced and
  // its second half traced; the difference is the tracing overhead.
  cursor_.assign(lines_["timed"].size(), 0);
  Window total;
  if (opt_.trace) {
    tracer_.set_enabled(false);
    untraced_ = Timed(opt_.seconds / 2);
    tracer_.set_enabled(true);
    traced_ = Timed(opt_.seconds / 2);
    total = traced_;
  } else {
    total = Timed(opt_.seconds);
  }
  timed_stats_ = scheduler_->stats();
  PostUpdates();
  peak_rss_mib_ = PeakRssMiB();
  CheckSampled();
  if (spec_.traffic == Traffic::kReadWriteRounds) CheckFinalEpoch();
  if (opt_.trace) Replays();

  // End-to-end metrics of the timed phase (the traced half of a traced
  // run) plus the post-phase updates of the social workloads. The summary
  // goes first; the result line is the last line of standard output.
  std::vector<double> update_ms = total.update_ms;
  update_ms.insert(update_ms.end(), post_update_ms_.begin(),
                   post_update_ms_.end());
  OpCounts all;
  for (const auto& [phase, c] : counts_) all.Merge(c);
  const bool correct =
      all.failed() == 0 && !total.query_ms.empty() && !update_ms.empty();
  std::vector<Metric> e2e = {
      {"setup_s", "s", Median(setup_s_)},
      {"query_p50_ms", "ms", Median(total.query_ms)},
      {"qps", "1/s", total.qps()},
      {"update_p50_ms", "ms", Median(update_ms)},
      {"peak_rss_mb", "MiB", peak_rss_mib_},
  };
  std::vector<Metric> layers;
  if (opt_.trace) LayerMetrics(&layers);
  WriteResults(e2e, layers, total.query_ms, update_ms, correct);
  PrintSummary(e2e, layers, total.query_ms, update_ms, all);

  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << all.attempted << ", \"failed\": "
       << all.failed() << ", \"metrics\": {";
  const std::vector<Metric>& out = opt_.trace ? layers : e2e;
  for (size_t i = 0; i < out.size(); ++i) {
    line << (i ? ", " : "") << "\"" << out[i].name << "\": {\"value\": "
         << Num(out[i].value) << ", \"unit\": \"" << out[i].unit << "\"}";
  }
  line << "}}";
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int RunServe(const ServeOptions& opt) {
  const WorkloadSpec* spec = FindWorkload(opt.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "servebench: unknown workload %s\n",
                 opt.workload.c_str());
    return 2;
  }
  LoadRun run(*spec, opt);
  return run.Run();
}

}  // namespace servebench
