#ifndef SAPHYRA_TESTS_BICOMP_TEST_UTIL_H_
#define SAPHYRA_TESTS_BICOMP_TEST_UTIL_H_

// Shared comparison helpers for biconnected decompositions: a
// labeling-independent canonical form, a field-by-field bitwise check, and
// straightforward reference builds of the per-component views and alias
// tables that the linear, flat production builders must match bit for bit.

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bicomp/biconnected.h"
#include "bicomp/component_view.h"
#include "bicomp/isp.h"
#include "graph/graph.h"
#include "util/logging.h"
#include "util/rng.h"

namespace saphyra {
namespace testing {

/// Algorithm-independent view of a decomposition: the articulation-point
/// set plus the edge partition with every incidental ordering removed.
/// Two decompositions of the same graph are equivalent iff their canonical
/// forms compare equal, whatever labeling scheme produced them.
struct CanonicalBcc {
  using Edge = std::pair<NodeId, NodeId>;  // u < v

  std::vector<NodeId> cutpoints;                // sorted
  std::vector<std::vector<Edge>> components;    // sorted edges, sorted lists

  bool operator==(const CanonicalBcc&) const = default;
};

inline CanonicalBcc Canonicalize(const Graph& g,
                                 const BiconnectedComponents& bcc) {
  CanonicalBcc out;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (bcc.is_cutpoint[v]) out.cutpoints.push_back(v);
  }
  std::vector<std::vector<CanonicalBcc::Edge>> by_label(bcc.num_components);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EdgeIndex base = g.offset(u);
    auto nbr = g.neighbors(u);
    for (size_t i = 0; i < nbr.size(); ++i) {
      NodeId v = nbr[i];
      if (v < u) continue;  // one direction per undirected edge
      uint32_t c = bcc.arc_component[base + i];
      SAPHYRA_CHECK(c < bcc.num_components);
      by_label[c].push_back({u, v});
    }
  }
  for (auto& edges : by_label) {
    SAPHYRA_CHECK(!edges.empty());  // every component owns at least one edge
    std::sort(edges.begin(), edges.end());
  }
  std::sort(by_label.begin(), by_label.end());
  out.components = std::move(by_label);
  return out;
}

/// Every field equal — the bitwise contract behind `.sgr` invariance, not
/// just equivalence up to relabeling.
inline void ExpectBccBitwiseEqual(const BiconnectedComponents& a,
                                  const BiconnectedComponents& b,
                                  const std::string& what) {
  EXPECT_EQ(a.num_components, b.num_components) << what;
  EXPECT_EQ(a.arc_component, b.arc_component) << what;
  EXPECT_EQ(a.is_cutpoint, b.is_cutpoint) << what;
  EXPECT_EQ(a.component_nodes, b.component_nodes) << what;
  EXPECT_EQ(a.node_component, b.node_component) << what;
  EXPECT_EQ(a.rev_arc, b.rev_arc) << what;
  EXPECT_EQ(a.cutpoint_comp_count_, b.cutpoint_comp_count_) << what;
}

// --- reference builders ------------------------------------------------------

/// Member lists gathered per component from the arc labels, then sorted
/// and deduplicated: the plain construction the counting pass replaces.
inline std::vector<std::vector<NodeId>> ReferenceMembers(
    const Graph& g, const BiconnectedComponents& bcc) {
  std::vector<std::vector<NodeId>> members(bcc.num_components);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (EdgeIndex e = g.offset(u); e < g.offset(u) + g.degree(u); ++e) {
      members[bcc.arc_component[e]].push_back(u);
    }
  }
  for (auto& nodes : members) {
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  }
  return members;
}

/// The four flat view arrays, built by binary-searching the local id of
/// both ends of every arc in the reference member lists.
struct ReferenceViews {
  std::vector<uint64_t> node_begin;
  std::vector<NodeId> nodes;
  std::vector<EdgeIndex> offsets;
  std::vector<NodeId> adj;
  NodeId max_size = 0;
};

inline ReferenceViews BuildReferenceViews(const Graph& g,
                                          const BiconnectedComponents& bcc) {
  const auto members = ReferenceMembers(g, bcc);
  ReferenceViews out;
  out.node_begin.push_back(0);
  for (const auto& m : members) {
    out.nodes.insert(out.nodes.end(), m.begin(), m.end());
    out.node_begin.push_back(out.nodes.size());
    out.max_size = std::max(out.max_size, static_cast<NodeId>(m.size()));
  }
  auto local = [&](uint32_t c, NodeId v) {
    auto it = std::lower_bound(members[c].begin(), members[c].end(), v);
    SAPHYRA_CHECK(it != members[c].end() && *it == v);
    return static_cast<NodeId>(it - members[c].begin());
  };
  std::vector<std::vector<NodeId>> lists(out.nodes.size());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nbr = g.neighbors(u);
    for (size_t i = 0; i < nbr.size(); ++i) {
      const uint32_t c = bcc.arc_component[g.offset(u) + i];
      lists[out.node_begin[c] + local(c, u)].push_back(local(c, nbr[i]));
    }
  }
  out.offsets.push_back(0);
  for (const auto& l : lists) {
    out.adj.insert(out.adj.end(), l.begin(), l.end());
    out.offsets.push_back(out.adj.size());
  }
  return out;
}

template <typename T>
std::vector<T> ToVector(std::span<const T> s) {
  return {s.begin(), s.end()};
}

/// Member list, all four view arrays and the size bound equal the
/// reference bit for bit.
inline void ExpectViewsMatchReference(const Graph& g,
                                      const BiconnectedComponents& bcc,
                                      const ComponentViews& views,
                                      const std::string& what) {
  const ReferenceViews ref = BuildReferenceViews(g, bcc);
  EXPECT_EQ(ToVector(bcc.component_nodes.begin_array().span()),
            ref.node_begin) << what;
  EXPECT_EQ(ToVector(bcc.component_nodes.node_array().span()), ref.nodes)
      << what;
  EXPECT_EQ(ToVector(views.raw_node_begin()), ref.node_begin) << what;
  EXPECT_EQ(ToVector(views.raw_nodes()), ref.nodes) << what;
  EXPECT_EQ(ToVector(views.raw_offsets()), ref.offsets) << what;
  EXPECT_EQ(ToVector(views.raw_adj()), ref.adj) << what;
  EXPECT_EQ(views.max_component_size(), ref.max_size) << what;
}

/// Vose's alias construction as a standalone AliasTable built it, one heap
/// table per component: the reference for the flat IspIndex tables.
struct ReferenceAlias {
  std::vector<double> prob;
  std::vector<uint32_t> alias;

  explicit ReferenceAlias(const std::vector<double>& weights) {
    const size_t k = weights.size();
    prob.assign(k, 0.0);
    alias.assign(k, 0);
    if (k == 0) return;
    double total = 0.0;
    for (double w : weights) total += w;
    std::vector<double> scaled(k);
    for (size_t i = 0; i < k; ++i) scaled[i] = weights[i] * k / total;
    std::vector<uint32_t> small, large;
    for (size_t i = 0; i < k; ++i) {
      (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
    }
    while (!small.empty() && !large.empty()) {
      uint32_t s = small.back();
      small.pop_back();
      uint32_t l = large.back();
      large.pop_back();
      prob[s] = scaled[s];
      alias[s] = l;
      scaled[l] = (scaled[l] + scaled[s]) - 1.0;
      (scaled[l] < 1.0 ? small : large).push_back(l);
    }
    for (uint32_t l : large) prob[l] = 1.0;
    for (uint32_t s : small) prob[s] = 1.0;
  }

  size_t Sample(Rng* rng) const {
    size_t i = rng->UniformInt(prob.size());
    return rng->UniformDouble() < prob[i] ? i : alias[i];
  }
};

/// Per-component reference tables of an IspIndex: stage-2 source weights
/// r(csize − r), stage-3 target weights r, and their alias tables (empty
/// when the component has no source mass).
struct ReferenceIspTables {
  std::vector<std::vector<double>> target_weights;
  std::vector<ReferenceAlias> source, target;

  explicit ReferenceIspTables(const IspIndex& isp) {
    const BiconnectedComponents& bcc = isp.bcc();
    for (uint32_t c = 0; c < bcc.num_components; ++c) {
      const double csize =
          static_cast<double>(isp.tree().conn_size_of_comp(c));
      std::vector<double> src_w, tgt_w;
      double w = 0.0;
      for (NodeId v : bcc.component_nodes[c]) {
        const double r = static_cast<double>(isp.OutReach(c, v));
        src_w.push_back(r * (csize - r));
        tgt_w.push_back(r);
        w += r * (csize - r);
      }
      source.emplace_back(w > 0.0 ? src_w : std::vector<double>());
      target.emplace_back(w > 0.0 ? tgt_w : std::vector<double>());
      target_weights.push_back(std::move(tgt_w));
    }
  }

  /// Stage 3 exactly as the per-component tables drew it.
  NodeId SampleTarget(const IspIndex& isp, uint32_t c, NodeId s,
                      Rng* rng) const {
    const auto nodes = isp.bcc().component_nodes[c];
    if (nodes.size() == 2) return nodes[0] == s ? nodes[1] : nodes[0];
    const auto& weights = target_weights[c];
    const size_t s_index = static_cast<size_t>(
        std::lower_bound(nodes.begin(), nodes.end(), s) - nodes.begin());
    double mass = 0.0;
    for (double r : weights) mass += r;
    if (weights[s_index] < 0.5 * mass) {
      for (;;) {
        const NodeId t = nodes[target[c].Sample(rng)];
        if (t != s) return t;
      }
    }
    double x = rng->UniformDouble() * (mass - weights[s_index]);
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (i == s_index) continue;
      x -= weights[i];
      if (x <= 0.0) return nodes[i];
    }
    return nodes.back() == s ? nodes[nodes.size() - 2] : nodes.back();
  }
};

/// Every flat table slice of `isp` equals the per-component reference bit
/// for bit (zeros where the reference built no table), and SampleSource /
/// SampleTarget draw the reference's sequence under one seed.
inline void ExpectIspTablesMatchReference(const IspIndex& isp,
                                          const std::string& what) {
  const ReferenceIspTables ref(isp);
  const uint32_t num_comps = isp.num_components();
  for (uint32_t c = 0; c < num_comps; ++c) {
    const size_t k = isp.bcc().component_nodes[c].size();
    const auto src = isp.source_table(c);
    const auto tgt = isp.target_table(c);
    EXPECT_EQ(ToVector(isp.target_weights(c)), ref.target_weights[c])
        << what << " comp " << c;
    if (ref.source[c].prob.empty()) {
      const std::vector<double> zero_prob(k, 0.0);
      const std::vector<uint32_t> zero_alias(k, 0);
      EXPECT_EQ(ToVector(src.prob), zero_prob) << what << " comp " << c;
      EXPECT_EQ(ToVector(src.alias), zero_alias) << what << " comp " << c;
      EXPECT_EQ(ToVector(tgt.prob), zero_prob) << what << " comp " << c;
      EXPECT_EQ(ToVector(tgt.alias), zero_alias) << what << " comp " << c;
      continue;
    }
    EXPECT_EQ(ToVector(src.prob), ref.source[c].prob) << what << " comp " << c;
    EXPECT_EQ(ToVector(src.alias), ref.source[c].alias) << what << " comp " << c;
    EXPECT_EQ(ToVector(tgt.prob), ref.target[c].prob) << what << " comp " << c;
    EXPECT_EQ(ToVector(tgt.alias), ref.target[c].alias) << what << " comp " << c;
  }
  if (num_comps == 0) return;
  Rng pick(num_comps), flat(0x5A), reference(0x5A);
  for (int draw = 0; draw < 256; ++draw) {
    const uint32_t c = static_cast<uint32_t>(pick.UniformInt(num_comps));
    if (ref.source[c].prob.empty()) continue;
    const auto nodes = isp.bcc().component_nodes[c];
    const NodeId s = isp.SampleSource(c, &flat);
    ASSERT_EQ(s, nodes[ref.source[c].Sample(&reference)]) << what;
    ASSERT_EQ(isp.SampleTarget(c, s, &flat),
              ref.SampleTarget(isp, c, s, &reference))
        << what;
  }
}

}  // namespace testing
}  // namespace saphyra

#endif  // SAPHYRA_TESTS_BICOMP_TEST_UTIL_H_
