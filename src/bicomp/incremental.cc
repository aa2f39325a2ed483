#include "bicomp/incremental.h"

#include <algorithm>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace saphyra {
namespace {

/// Absolute CSR arc index of (u -> v) in `g`; the edge must exist.
EdgeIndex ArcIndexOf(const Graph& g, NodeId u, NodeId v) {
  const auto nbr = g.neighbors(u);
  auto it = std::lower_bound(nbr.begin(), nbr.end(), v);
  SAPHYRA_CHECK(it != nbr.end() && *it == v);
  return g.offset(u) + static_cast<EdgeIndex>(it - nbr.begin());
}

/// Blocks on the block-cut-tree path between u and v in the old graph,
/// found by BFS over the block/cutpoint incidence forest (the path is
/// unique — the incidence graph is a forest — so the BFS order cannot
/// change the result). Returns false when u and v sit in different
/// connected components (or either is isolated): the inserted edge is a
/// bridge block of its own and no old block changes.
///
/// A node's blocks are the distinct arc_component labels on its arcs, and
/// each cutpoint is expanded at most once, so the walk costs
/// O(Σ|C_i| + m) however many blocks meet at one cutpoint; `reads` counts
/// the member and arc-label entries it reads.
bool BlockCutPath(const Graph& g, const BiconnectedComponents& bcc,
                  NodeId u, NodeId v, std::vector<uint32_t>* path,
                  uint64_t* reads) {
  path->clear();
  if (g.degree(u) == 0 || g.degree(v) == 0) return false;
  const std::span<const uint32_t> labels = bcc.arc_component;
  auto arc_labels = [&](NodeId x) {
    return labels.subspan(g.offset(x), g.degree(x));
  };
  std::vector<uint8_t> contains_v(bcc.num_components, 0);
  for (uint32_t c : arc_labels(v)) contains_v[c] = 1;
  *reads += g.degree(v);
  constexpr uint32_t kRoot = kInvalidComp;
  std::vector<uint32_t> parent(bcc.num_components, kInvalidComp);
  std::vector<uint8_t> visited(bcc.num_components, 0);
  std::vector<uint8_t> expanded(g.num_nodes(), 0);
  std::deque<uint32_t> queue;
  uint32_t goal = kInvalidComp;
  // Enqueue the unvisited blocks of x with parent `from`; true once a
  // block holding v is reached.
  auto expand = [&](NodeId x, uint32_t from) {
    expanded[x] = 1;
    for (uint32_t c : arc_labels(x)) {
      ++*reads;
      if (visited[c]) continue;
      visited[c] = 1;
      parent[c] = from;
      if (contains_v[c]) {
        goal = c;  // from == kRoot: u and v share a block
        return true;
      }
      queue.push_back(c);
    }
    return false;
  };
  expand(u, kRoot);
  while (goal == kInvalidComp && !queue.empty()) {
    const uint32_t c = queue.front();
    queue.pop_front();
    for (NodeId w : bcc.component_nodes[c]) {
      ++*reads;
      if (bcc.is_cutpoint[w] && !expanded[w] && expand(w, c)) break;
    }
  }
  if (goal == kInvalidComp) return false;  // different components
  for (uint32_t c = goal; c != kRoot; c = parent[c]) path->push_back(c);
  return true;
}

}  // namespace

BiconnectedComponents RepairBiconnectedComponents(
    const Graph& old_graph, const BiconnectedComponents& old_bcc,
    const Graph& new_graph, const EdgeMutation& mut,
    const IncrementalBicompOptions& opts, IncrementalBicompStats* stats) {
  const NodeId n = new_graph.num_nodes();
  SAPHYRA_CHECK(old_graph.num_nodes() == n);
  const bool insert = mut.kind == EdgeMutationKind::kInsert;
  SAPHYRA_CHECK(new_graph.num_arcs() ==
                old_graph.num_arcs() + (insert ? 2 : -2));
  IncrementalBicompStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = IncrementalBicompStats();

  // 1. Transfer the old per-arc labels onto the new CSR. The two graphs
  // differ by one slot in u's list and one in v's list, so the label
  // array is the old one with two positions inserted (as kInvalidComp,
  // marking the new arcs dirty) or erased.
  std::vector<uint32_t> labels(old_bcc.arc_component.begin(),
                               old_bcc.arc_component.end());
  std::vector<uint32_t> dirty;  // old block labels to recompute
  if (insert) {
    EdgeIndex p1 = ArcIndexOf(new_graph, mut.u, mut.v);
    EdgeIndex p2 = ArcIndexOf(new_graph, mut.v, mut.u);
    if (p1 > p2) std::swap(p1, p2);
    labels.insert(labels.begin() + p1, kInvalidComp);
    labels.insert(labels.begin() + p2, kInvalidComp);
    BlockCutPath(old_graph, old_bcc, mut.u, mut.v, &dirty,
                 &stats->walk_reads);
  } else {
    EdgeIndex p1 = ArcIndexOf(old_graph, mut.u, mut.v);
    EdgeIndex p2 = ArcIndexOf(old_graph, mut.v, mut.u);
    dirty.push_back(old_bcc.arc_component[p1]);
    if (p1 > p2) std::swap(p1, p2);
    labels.erase(labels.begin() + p2);
    labels.erase(labels.begin() + p1);
  }
  stats->dirty_blocks = static_cast<uint32_t>(dirty.size());

  // 2. Measure the dirty region (old dirty-block arcs that survive, plus
  // the inserted arcs) and route: past the budget a full pass is cheaper,
  // and the canonicalization contract makes it emit the same bytes.
  std::vector<uint8_t> is_dirty(old_bcc.num_components, 0);
  for (uint32_t c : dirty) is_dirty[c] = 1;
  uint64_t dirty_arcs = 0;
  for (uint32_t c : labels) {
    if (c == kInvalidComp || is_dirty[c]) ++dirty_arcs;
  }
  stats->dirty_arcs = dirty_arcs;
  if (static_cast<double>(dirty_arcs) >
      opts.max_dirty_fraction * static_cast<double>(new_graph.num_arcs())) {
    stats->fell_back = true;
    return ComputeBiconnectedComponents(new_graph);
  }

  uint32_t label_space = old_bcc.num_components;
  if (dirty_arcs != 0) {
    // 3. Recompute the decomposition of the dirty edge set on a compact
    // subgraph. Local ids are order-preserving (sorted dirty vertex
    // list), so sub adjacency order matches the global CSR order and the
    // graft below is a per-vertex two-pointer walk.
    std::vector<NodeId> dirty_nodes;
    for (NodeId x = 0; x < n; ++x) {
      const EdgeIndex base = new_graph.offset(x);
      const NodeId deg = new_graph.degree(x);
      for (NodeId i = 0; i < deg; ++i) {
        const uint32_t c = labels[base + i];
        if (c == kInvalidComp || is_dirty[c]) {
          dirty_nodes.push_back(x);
          break;
        }
      }
    }
    std::vector<NodeId> local_id(n, kInvalidNode);
    for (size_t i = 0; i < dirty_nodes.size(); ++i) {
      local_id[dirty_nodes[i]] = static_cast<NodeId>(i);
    }
    GraphBuilder builder;
    for (NodeId x : dirty_nodes) {
      const EdgeIndex base = new_graph.offset(x);
      const auto nbr = new_graph.neighbors(x);
      for (size_t i = 0; i < nbr.size(); ++i) {
        const uint32_t c = labels[base + i];
        if ((c == kInvalidComp || is_dirty[c]) && x < nbr[i]) {
          builder.AddEdge(local_id[x], local_id[nbr[i]]);
        }
      }
    }
    Graph sub;
    Status st = builder.Build(static_cast<NodeId>(dirty_nodes.size()), &sub);
    SAPHYRA_CHECK_MSG(st.ok(), st.message().c_str());
    const BiconnectedComponents sub_bcc = ComputeBiconnectedComponents(sub);
    // Graft the sub-labels back, offset past the old label space so clean
    // and recomputed labels never collide before the canonical renumber.
    for (NodeId lx = 0; lx < sub.num_nodes(); ++lx) {
      const NodeId gx = dirty_nodes[lx];
      const auto sub_nbr = sub.neighbors(lx);
      const auto new_nbr = new_graph.neighbors(gx);
      const EdgeIndex gbase = new_graph.offset(gx);
      size_t gi = 0;
      for (size_t si = 0; si < sub_nbr.size(); ++si) {
        const NodeId gy = dirty_nodes[sub_nbr[si]];
        while (new_nbr[gi] != gy) ++gi;
        labels[gbase + gi] =
            label_space + sub_bcc.arc_component[sub.offset(lx) + si];
        ++gi;
      }
    }
    label_space += sub_bcc.num_components;
  }
  // Inserts always land here with dirty_arcs >= 2 (the new arcs carry
  // kInvalidComp): a bridge insert recomputes just the one-edge subgraph.
  // Deleting a bridge leaves dirty_arcs == 0 with no new labels: its old
  // label simply disappears and the renumber closes the gap.

  BiconnectedComponents out;
  out.arc_component = std::move(labels);
  out.rev_arc = ComputeReverseArcs(new_graph);
  FinalizeBicompFields(new_graph, label_space, /*derive_cutpoints=*/true,
                       &out);
  return out;
}

}  // namespace saphyra
