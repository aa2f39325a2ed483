#ifndef SAPHYRA_BICOMP_BICONNECTED_H_
#define SAPHYRA_BICOMP_BICONNECTED_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/storage.h"

namespace saphyra {

/// Component id for arcs that belong to no biconnected component
/// (never produced for arcs of a valid graph; used as a sentinel).
constexpr uint32_t kInvalidComp = static_cast<uint32_t>(-1);

/// \brief Member lists of every biconnected component, flattened: component
/// c owns the slice [begin[c], begin[c+1]) of one node array, sorted
/// ascending. Σ|C_i| entries plus ℓ+1 offsets, with no per-component
/// allocation. Both arrays are ArrayRefs: ComponentViews shares them
/// rather than copying, and a `.sgr` load references the file's
/// VIEW_NODE_BEGIN / VIEW_NODES sections zero-copy.
class ComponentMembers {
 public:
  ComponentMembers() = default;
  ComponentMembers(ArrayRef<uint64_t> begin, ArrayRef<NodeId> nodes)
      : begin_(std::move(begin)), nodes_(std::move(nodes)) {}

  /// \brief Number of components.
  size_t size() const { return begin_.empty() ? 0 : begin_.size() - 1; }

  /// \brief Members of component c, sorted ascending.
  std::span<const NodeId> operator[](size_t c) const {
    return {nodes_.data() + begin_[c], nodes_.data() + begin_[c + 1]};
  }

  /// \brief The flat arrays (size ℓ+1 and Σ|C_i|).
  const ArrayRef<uint64_t>& begin_array() const { return begin_; }
  const ArrayRef<NodeId>& node_array() const { return nodes_; }

  bool operator==(const ComponentMembers& other) const {
    return std::ranges::equal(begin_, other.begin_) &&
           std::ranges::equal(nodes_, other.nodes_);
  }

 private:
  ArrayRef<uint64_t> begin_;
  ArrayRef<NodeId> nodes_;
};

/// \brief Biconnected (2-vertex-connected) decomposition of a graph.
///
/// Computed with an iterative Hopcroft–Tarjan DFS (§IV-A of the paper,
/// citing [43]). Every undirected edge belongs to exactly one biconnected
/// component; a node belongs to every component one of its incident edges
/// belongs to. Nodes in more than one component are cutpoints: removing
/// one disconnects the graph (Fig. 2 of the paper).
///
/// Canonicalization contract: component ids are assigned in order of each
/// component's smallest CSR arc index, which makes every field of this
/// struct a pure function of the graph — independent of the traversal
/// order that produced it. The full pass and the incremental repair
/// (bicomp/incremental.h) both honor this, so persisted `.sgr`
/// decomposition sections are bitwise identical whichever path wrote them
/// (tests/bicomp_differential_test.cc and
/// tests/incremental_bicomp_test.cc pin this).
struct BiconnectedComponents {
  /// Number of biconnected components (ℓ in the paper).
  uint32_t num_components = 0;

  /// Per CSR arc (see Graph::offset), the id of the component the
  /// underlying undirected edge belongs to. Both directions of an edge get
  /// the same label. The samplers use this to restrict BFS to one component.
  std::vector<uint32_t> arc_component;

  /// is_cutpoint[v] == 1 iff v is an articulation point.
  std::vector<uint8_t> is_cutpoint;

  /// Sorted node lists per component. A cutpoint appears in every component
  /// it belongs to, so the total size is n' = Σ|C_i| >= n.
  ComponentMembers component_nodes;

  /// For every node, the id of one component containing it (kInvalidComp
  /// for isolated nodes). For non-cutpoints this is *the* component.
  std::vector<uint32_t> node_component;

  /// \brief Number of biconnected components node v belongs to.
  uint32_t NumComponentsOf(NodeId v) const {
    return node_component[v] == kInvalidComp ? 0
           : (is_cutpoint[v] ? cutpoint_comp_count_[v] : 1);
  }

  /// \brief Reverse-arc map: rev_arc[e] is the CSR index of arc (v,u) given
  /// arc e = (u,v). Shared with the samplers.
  std::vector<EdgeIndex> rev_arc;

  // Internal: per-node component multiplicity for cutpoints.
  std::vector<uint32_t> cutpoint_comp_count_;
};

/// \brief Run the decomposition. O(n + m). The DFS keeps its frames on a
/// heap-allocated stack, so graphs whose DFS tree is millions of levels
/// deep (long paths) need no recursion depth.
BiconnectedComponents ComputeBiconnectedComponents(const Graph& g);

/// \brief Compute the reverse-arc map alone (used by tests/samplers).
std::vector<EdgeIndex> ComputeReverseArcs(const Graph& g);

/// \brief Canonical finalization shared by the full pass and the
/// incremental repair.
///
/// On entry `out->arc_component` holds a provisional per-arc labeling
/// (values < `label_space`, both directions of an edge sharing a label)
/// that partitions the arcs into the graph's biconnected components —
/// with any label values, in any order. The helper renumbers the labels
/// canonically (ascending smallest CSR arc index — the contract above),
/// sets num_components, and rebuilds component_nodes, node_component and
/// the cutpoint multiplicities from the labels in two O(n + m) counting
/// passes (no per-component sort). With `derive_cutpoints`
/// set, is_cutpoint is derived as multiplicity > 1 (a node is an
/// articulation point iff it belongs to at least two components, the
/// incremental repair path); otherwise the caller's is_cutpoint is kept
/// and checked consistent (the full pass cross-validates its Tarjan
/// cutpoints this way). rev_arc is untouched.
///
/// Because every derived field is a pure function of the arc partition,
/// any pass that produces the correct partition — the full DFS or the
/// incremental repair — ends up bitwise identical after this
/// finalization.
void FinalizeBicompFields(const Graph& g, uint32_t label_space,
                          bool derive_cutpoints, BiconnectedComponents* out);

}  // namespace saphyra

#endif  // SAPHYRA_BICOMP_BICONNECTED_H_
