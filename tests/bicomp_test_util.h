#ifndef SAPHYRA_TESTS_BICOMP_TEST_UTIL_H_
#define SAPHYRA_TESTS_BICOMP_TEST_UTIL_H_

// Shared comparison helpers for biconnected decompositions: a
// labeling-independent canonical form and a field-by-field bitwise check.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bicomp/biconnected.h"
#include "graph/graph.h"
#include "util/logging.h"

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

}  // namespace testing
}  // namespace saphyra

#endif  // SAPHYRA_TESTS_BICOMP_TEST_UTIL_H_
