#include "bc/exact_subspace.h"

#include <algorithm>

#include "util/logging.h"

namespace saphyra {

ExactSubspaceResult ComputeExactSubspace(const PersonalizedSpace& space) {
  const IspIndex& isp = space.isp();
  const Graph& g = isp.graph();
  const auto& bcc = isp.bcc();
  const NodeId n = g.num_nodes();
  const size_t k = space.targets().size();

  ExactSubspaceResult out;
  out.exact_risks.assign(k, 0.0);
  const double denom = isp.total_weight() * space.eta();
  if (denom <= 0.0) return out;  // empty personalized space

  // B: all neighbors of target nodes (candidate 2-hop endpoints).
  std::vector<uint8_t> in_b(n, 0);
  std::vector<NodeId> sources;
  for (NodeId a : space.targets()) {
    for (NodeId w : g.neighbors(a)) {
      if (!in_b[w]) {
        in_b[w] = 1;
        sources.push_back(w);
      }
    }
  }

  constexpr uint32_t kNoStamp = static_cast<uint32_t>(-1);
  std::vector<uint32_t> nbr_stamp(n, kNoStamp);   // "neighbor of s" marker
  std::vector<uint32_t> pair_stamp(n, kNoStamp);  // "t seen for s" marker
  std::vector<uint32_t> sigma_all(n, 0);  // σ_st: valid middles, any node
  std::vector<uint32_t> sigma_a(n, 0);    // σ^A_st: valid middles in A
  std::vector<uint32_t> pair_comp(n, 0);  // component of the (s,t) pair
  std::vector<NodeId> found;              // Δ_s

  double lambda_scaled = 0.0;  // λ̂ · n(n−1)·γ·η
  std::vector<double> exact_scaled(k, 0.0);

  // Middles and third nodes are read off the component views: v's list in
  // the (s,v) component holds exactly the t of the walks s→v→t that stay
  // inside it, in ascending order, so a hub whose arcs mostly leave that
  // component (leaf bridges) costs each walk O(deg_C(hub)), not deg(hub).
  // v's local id is the next entry of s's own list in that component:
  // both lists ascend, so walking s's adjacency steps through them in
  // order, with one search for s per component instead of one per v.
  const ComponentViews& views = isp.views();
  std::vector<uint32_t> comp_stamp(views.num_components(), kNoStamp);
  std::vector<const NodeId*> comp_next(views.num_components());
  std::vector<NodeId> s_local;  // local id of s_nbr[i] in its arc's component
  auto for_each_third = [&](uint32_t c, NodeId v_local, auto&& visit) {
    const auto members = views.nodes(c);
    for (NodeId lt : views.Neighbors(c, v_local)) visit(members[lt]);
  };

  for (uint32_t sidx = 0; sidx < sources.size(); ++sidx) {
    const NodeId s = sources[sidx];
    for (NodeId w : g.neighbors(s)) nbr_stamp[w] = sidx;
    nbr_stamp[s] = sidx;  // exclude s itself the same way
    found.clear();

    // Phase 1: enumerate 2-hop walks s→v→t whose two edges share a
    // biconnected component; count all valid middles (σ_st) and the
    // middles in A (σ^A_st). Walks with t adjacent to s are not shortest
    // (d(s,t)=1) and are skipped.
    const EdgeIndex s_base = g.offset(s);
    const auto s_nbr = g.neighbors(s);
    s_local.resize(s_nbr.size());
    for (size_t i = 0; i < s_nbr.size(); ++i) {
      const uint32_t c1 = bcc.arc_component[s_base + i];
      if (comp_stamp[c1] != sidx) {
        comp_stamp[c1] = sidx;
        comp_next[c1] = views.Neighbors(c1, views.ToLocal(c1, s)).data();
      }
      s_local[i] = *comp_next[c1]++;
    }
    for (size_t i = 0; i < s_nbr.size(); ++i) {
      const NodeId v = s_nbr[i];
      const uint32_t c1 = bcc.arc_component[s_base + i];
      const bool v_in_a = space.HypothesisIndex(v) >= 0;
      // Only arcs of c1: a walk crossing components is not intra-component.
      for_each_third(c1, s_local[i], [&](NodeId t) {
        if (nbr_stamp[t] == sidx) return;  // t == s or d(s,t)=1
        if (pair_stamp[t] != sidx) {
          pair_stamp[t] = sidx;
          sigma_all[t] = 0;
          sigma_a[t] = 0;
          pair_comp[t] = c1;
          found.push_back(t);
        }
        // Two biconnected components share at most one node, so a valid
        // (s,t) pair cannot appear under two different components.
        SAPHYRA_CHECK(pair_comp[t] == c1);
        ++sigma_all[t];
        if (v_in_a) ++sigma_a[t];
      });
    }

    // λ̂ contribution of every ordered pair (s, t): the fraction of its
    // σ_st shortest paths whose middle is in A, weighted by the pair mass
    // q_st (scaled by n(n−1): q̃ = r_c(s)·r_c(t)).
    for (NodeId t : found) {
      if (sigma_a[t] == 0) continue;  // pair has no path in X̂
      const uint32_t c = pair_comp[t];
      const double q_scaled =
          static_cast<double>(isp.OutReach(c, s)) *
          static_cast<double>(isp.OutReach(c, t));
      lambda_scaled += q_scaled * static_cast<double>(sigma_a[t]) /
                       static_cast<double>(sigma_all[t]);
      ++out.pairs_examined;
    }

    // Phase 2: credit each middle v ∈ A with its share of every pair:
    // ℓ̂_v += q_st/σ_st for each ordered pair (s,t) routed through v.
    for (size_t i = 0; i < s_nbr.size(); ++i) {
      const NodeId v = s_nbr[i];
      const int32_t h = space.HypothesisIndex(v);
      if (h < 0) continue;
      const uint32_t c1 = bcc.arc_component[s_base + i];
      const double r_s = static_cast<double>(isp.OutReach(c1, s));
      for_each_third(c1, s_local[i], [&](NodeId t) {
        if (nbr_stamp[t] == sidx) return;
        SAPHYRA_CHECK(pair_stamp[t] == sidx && pair_comp[t] == c1);
        exact_scaled[h] += r_s * static_cast<double>(isp.OutReach(c1, t)) /
                           static_cast<double>(sigma_all[t]);
      });
    }
  }

  out.lambda_hat = lambda_scaled / denom;
  for (size_t h = 0; h < k; ++h) {
    out.exact_risks[h] = exact_scaled[h] / denom;
  }
  return out;
}

bool InExactSubspace(const PersonalizedSpace& space,
                     const std::vector<NodeId>& path_nodes) {
  // Paths handed in are already intra-component PISP samples; membership in
  // X̂ (Eq. 29) then reduces to: length 2 and the middle node is a target.
  return path_nodes.size() == 3 &&
         space.HypothesisIndex(path_nodes[1]) >= 0;
}

}  // namespace saphyra
