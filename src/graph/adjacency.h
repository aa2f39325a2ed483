#ifndef SAPHYRA_GRAPH_ADJACENCY_H_
#define SAPHYRA_GRAPH_ADJACENCY_H_

/// \file
/// Adjacency adapters: the compile-time interface PathSampler's
/// bidirectional expansion is templated over. An adapter exposes
///   ForEachScanned(u, scanned, f) — visit the allowed neighbors of u,
///                          charging every arc scanned (allowed or not)
///                          to *scanned,
///   ForEach(u, f)        — the same visit without cost accounting (the
///                          backward walks are not part of the scan
///                          metric),
///   Cost(u)              — arc mass for the frontier-balancing heuristic.
///
/// Adapters with a compact vertex domain additionally expose
///   DomainSize()  — number of vertices local ids range over,
///   DomainArcs()  — total directed arcs of the domain,
///   ArcsOf(u)     — the neighbor list as a contiguous span,
///   PrefetchNode(u) — warm the CSR row before expansion,
/// which makes them eligible for the bottom-up pull: the direction
/// heuristic needs the unexplored arc mass, and the candidate scan needs
/// the id range. The push-only filtered adapter here exposes neither —
/// its allowed neighbors are not a contiguous span, so traversals over it
/// always push.

#include <cstdint>
#include <span>
#include <vector>

#include "bicomp/component_view.h"
#include "graph/graph.h"

namespace saphyra {

/// \brief Unrestricted traversal over the global CSR. Domain-capable.
struct GlobalAdj {
  const Graph* g;
  NodeId DomainSize() const { return g->num_nodes(); }
  uint64_t DomainArcs() const { return g->num_arcs(); }
  std::span<const NodeId> ArcsOf(NodeId u) const { return g->neighbors(u); }
  void PrefetchNode(NodeId u) const {
    __builtin_prefetch(g->neighbors(u).data(), 0, 2);
  }
  template <class F>
  void ForEach(NodeId u, F&& f) const {
    for (NodeId v : g->neighbors(u)) f(v);
  }
  uint64_t Cost(NodeId u) const { return g->degree(u); }
};

/// \brief Traversal restricted to one biconnected component by per-arc
/// label compare. Push-only: the labels are indexed by the *scanning*
/// endpoint's CSR slot, so a pull would test the wrong arc.
struct FilteredAdj {
  const Graph* g;
  const std::vector<uint32_t>* arc_component;
  uint32_t comp;
  template <class F>
  void ForEachScanned(NodeId u, uint64_t* scanned, F&& f) const {
    const EdgeIndex base = g->offset(u);
    const auto nbr = g->neighbors(u);
    *scanned += nbr.size();
    for (size_t i = 0; i < nbr.size(); ++i) {
      if ((*arc_component)[base + i] == comp) f(nbr[i]);
    }
  }
  template <class F>
  void ForEach(NodeId u, F&& f) const {
    const EdgeIndex base = g->offset(u);
    const auto nbr = g->neighbors(u);
    for (size_t i = 0; i < nbr.size(); ++i) {
      if ((*arc_component)[base + i] == comp) f(nbr[i]);
    }
  }
  uint64_t Cost(NodeId u) const { return g->degree(u); }
};

/// \brief Traversal over one component's compact CSR view (local ids).
/// Domain-capable: the fast path for intra-component sampling.
struct ViewAdj {
  const ComponentViews* views;
  uint32_t comp;
  NodeId DomainSize() const { return views->size(comp); }
  uint64_t DomainArcs() const { return views->num_arcs(comp); }
  std::span<const NodeId> ArcsOf(NodeId u) const {
    return views->Neighbors(comp, u);
  }
  void PrefetchNode(NodeId u) const { views->PrefetchOffsets(comp, u); }
  template <class F>
  void ForEach(NodeId u, F&& f) const {
    for (NodeId v : views->Neighbors(comp, u)) f(v);
  }
  uint64_t Cost(NodeId u) const { return views->Degree(comp, u); }
};

}  // namespace saphyra

#endif  // SAPHYRA_GRAPH_ADJACENCY_H_
