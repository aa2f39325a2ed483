#include "bicomp/isp.h"

#include <algorithm>

#include "graph/binary_io.h"
#include "util/logging.h"

namespace saphyra {

IspIndex::IspIndex(const Graph& g)
    : g_(&g),
      bcc_(ComputeBiconnectedComponents(g)),
      conn_(ConnectedComponents(g)),
      tree_(BlockCutTree::Build(g, bcc_, conn_)),
      views_(g, bcc_) {
  BuildDerivedTables();
}

IspIndex::IspIndex(const Graph& g, GraphCache&& cache)
    : g_(&g),
      bcc_(std::move(cache.bcc)),
      conn_(std::move(cache.conn)),
      tree_(std::move(cache.tree)),
      views_(std::move(cache.views)) {
  SAPHYRA_CHECK_MSG(cache.has_decomposition,
                    "cache holds no decomposition; use IspIndex(g)");
  SAPHYRA_CHECK_MSG(bcc_.arc_component.size() == g.num_arcs() &&
                        conn_.component.size() == g.num_nodes(),
                    "cached decomposition does not match the graph");
  tree_.Rebind(bcc_, conn_);
  BuildDerivedTables();
}

void IspIndex::BuildDerivedTables() {
  const Graph& g = *g_;
  const double n = static_cast<double>(g.num_nodes());
  const double pair_norm = n * (n - 1.0);
  const uint32_t num_comps = bcc_.num_components;

  const ComponentMembers& members = bcc_.component_nodes;
  const size_t total_members = members.node_array().size();
  comp_weight_.assign(num_comps, 0.0);
  target_mass_.assign(num_comps, 0.0);
  source_prob_.assign(total_members, 0.0);
  source_alias_.assign(total_members, 0);
  target_prob_.assign(total_members, 0.0);
  target_alias_.assign(total_members, 0);
  target_weight_.assign(total_members, 0.0);
  std::vector<double> src_w;
  AliasScratch scratch;
  for (uint32_t c = 0; c < num_comps; ++c) {
    const auto nodes = members[c];
    const size_t begin = members.begin_array()[c];
    const size_t k = nodes.size();
    const double csize =
        static_cast<double>(tree_.conn_size_of_comp(c));
    src_w.resize(k);
    double* tgt_w = target_weight_.data() + begin;
    double w = 0.0, mass = 0.0;
    for (size_t i = 0; i < k; ++i) {
      double r = static_cast<double>(tree_.OutReach(c, nodes[i]));
      double sw = r * (csize - r);
      src_w[i] = sw;
      tgt_w[i] = r;
      w += sw;
      mass += r;
    }
    comp_weight_[c] = w;
    target_mass_[c] = mass;
    total_weight_ += w;
    // A component with zero source mass can never be sampled; its table
    // slices stay zero.
    if (w > 0.0) {
      BuildAlias(src_w, {source_prob_.data() + begin, k},
                 {source_alias_.data() + begin, k}, &scratch);
      BuildAlias({tgt_w, k}, {target_prob_.data() + begin, k},
                 {target_alias_.data() + begin, k}, &scratch);
    }
  }
  gamma_ = g.num_nodes() >= 2 ? total_weight_ / pair_norm : 0.0;

  // Break-point centrality bc_a (Eq. 21, ordered-pair form).
  bca_.assign(g.num_nodes(), 0.0);
  for (uint32_t c = 0; c < num_comps; ++c) {
    const double csize = static_cast<double>(tree_.conn_size_of_comp(c));
    for (NodeId v : bcc_.component_nodes[c]) {
      if (!bcc_.is_cutpoint[v]) continue;
      double hang = static_cast<double>(tree_.HangSize(c, v));
      bca_[v] += hang * (csize - 1.0 - hang);
    }
  }
  if (g.num_nodes() >= 2) {
    for (auto& b : bca_) b /= pair_norm;
  }
}

std::vector<uint32_t> IspIndex::ComponentsOf(NodeId v) const {
  std::vector<uint32_t> comps;
  EdgeIndex base = g_->offset(v);
  for (NodeId i = 0; i < g_->degree(v); ++i) {
    comps.push_back(bcc_.arc_component[base + i]);
  }
  std::sort(comps.begin(), comps.end());
  comps.erase(std::unique(comps.begin(), comps.end()), comps.end());
  return comps;
}

NodeId IspIndex::SampleSource(uint32_t c, Rng* rng) const {
  SAPHYRA_CHECK(comp_weight_[c] > 0.0);
  return bcc_.component_nodes[c][SampleAlias(Slice(source_prob_, c),
                                             Slice(source_alias_, c), rng)];
}

NodeId IspIndex::SampleTarget(uint32_t c, NodeId s, Rng* rng) const {
  const auto nodes = bcc_.component_nodes[c];
  // A 2-node component (bridge) has only one possible target. This is also
  // the case where rejection sampling degenerates: a bridge below a hub has
  // r(hub) = csize−1, so rejecting t == hub would loop ~csize times.
  if (nodes.size() == 2) {
    return nodes[0] == s ? nodes[1] : nodes[0];
  }
  const auto weights = Slice(target_weight_, c);
  size_t s_index = static_cast<size_t>(
      std::lower_bound(nodes.begin(), nodes.end(), s) - nodes.begin());
  const double r_s = weights[s_index];
  const double mass = target_mass_[c];
  if (r_s < 0.5 * mass) {
    // Rejection from the unconditional r-weighted alias table realizes
    // Pr[t | t != s] = r(t)/(mass − r(s)) exactly; with r(s) below half the
    // mass the expected number of retries is at most 2.
    for (;;) {
      NodeId t = nodes[SampleAlias(Slice(target_prob_, c),
                                   Slice(target_alias_, c), rng)];
      if (t != s) return t;
    }
  }
  // One node holds most of the r-mass: sample by inversion over the
  // remaining members, O(|C_c|). Rare (at most one such node per call).
  double x = rng->UniformDouble() * (mass - r_s);
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i == s_index) continue;
    x -= weights[i];
    if (x <= 0.0) return nodes[i];
  }
  // Floating-point slack: return the last non-s member.
  return nodes.back() == s ? nodes[nodes.size() - 2] : nodes.back();
}

PersonalizedSpace::PersonalizedSpace(const IspIndex& isp,
                                     std::vector<NodeId> targets)
    : isp_(&isp), targets_(std::move(targets)) {
  const Graph& g = isp.graph();
  node_to_hyp_.assign(g.num_nodes(), -1);
  for (size_t i = 0; i < targets_.size(); ++i) {
    NodeId v = targets_[i];
    SAPHYRA_CHECK_MSG(v < g.num_nodes(), "target node out of range");
    SAPHYRA_CHECK_MSG(node_to_hyp_[v] == -1, "duplicate target node");
    node_to_hyp_[v] = static_cast<int32_t>(i);
  }
  // I(A): components containing at least one target.
  for (NodeId v : targets_) {
    for (uint32_t c : isp.ComponentsOf(v)) comp_ids_.push_back(c);
  }
  std::sort(comp_ids_.begin(), comp_ids_.end());
  comp_ids_.erase(std::unique(comp_ids_.begin(), comp_ids_.end()),
                  comp_ids_.end());

  double mass = 0.0;
  std::vector<double> weights;
  weights.reserve(comp_ids_.size());
  for (uint32_t c : comp_ids_) {
    weights.push_back(isp.comp_weight(c));
    mass += isp.comp_weight(c);
  }
  eta_ = isp.total_weight() > 0.0 ? mass / isp.total_weight() : 0.0;
  if (mass > 0.0) comp_alias_ = AliasTable(weights);
}

uint32_t PersonalizedSpace::SampleComponent(Rng* rng) const {
  SAPHYRA_CHECK(!comp_alias_.empty());
  return comp_ids_[comp_alias_.Sample(rng)];
}

}  // namespace saphyra
