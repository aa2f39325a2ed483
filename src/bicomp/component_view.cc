#include "bicomp/component_view.h"

#include <algorithm>

#include "util/logging.h"

namespace saphyra {

ComponentViews::ComponentViews(const Graph& g,
                               const BiconnectedComponents& bcc)
    : node_begin_(bcc.component_nodes.begin_array()),
      nodes_(bcc.component_nodes.node_array()) {
  const uint32_t num_comps = bcc.num_components;
  SAPHYRA_CHECK(bcc.component_nodes.size() == num_comps &&
                bcc.rev_arc.size() == g.num_arcs());
  for (uint32_t c = 0; c < num_comps; ++c) {
    max_size_ = std::max(max_size_, size(c));
  }
  const size_t total_nodes = nodes_.size();

  // Pass 1: the local id of every arc's source, plus per-local-node
  // degrees accumulated into offsets[slot+1] for the prefix sum below.
  // Sources are scanned in ascending order and member lists are sorted, so
  // the k-th distinct source met in component c has local id k: a running
  // counter per component replaces the per-arc binary search.
  std::vector<NodeId> arc_local(g.num_arcs());
  std::vector<EdgeIndex> offsets(total_nodes + 1, 0);
  {
    std::vector<NodeId> next_local(num_comps, 0);
    std::vector<NodeId> stamp(num_comps, kInvalidNode);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const EdgeIndex base = g.offset(u);
      const NodeId deg = g.degree(u);
      for (NodeId i = 0; i < deg; ++i) {
        const uint32_t c = bcc.arc_component[base + i];
        SAPHYRA_CHECK(c < num_comps);
        if (stamp[c] != u) {
          stamp[c] = u;
          SAPHYRA_CHECK(next_local[c] < size(c) &&
                        ToGlobal(c, next_local[c]) == u);
          ++next_local[c];
        }
        const NodeId local = next_local[c] - 1;
        arc_local[base + i] = local;
        ++offsets[node_begin_[c] + local + 1];
      }
    }
  }
  for (size_t i = 1; i <= total_nodes; ++i) offsets[i] += offsets[i - 1];
  SAPHYRA_CHECK(offsets[total_nodes] == g.num_arcs());

  // Pass 2: scatter each arc into its component slot, using offsets[slot]
  // (the slot's start) as its write cursor; the cursor ends at the next
  // slot's start, so shifting the array up one entry restores the offsets.
  // The neighbor's local id is the source local id of the reverse arc.
  // Scanning u ascending and its (sorted) global adjacency in order writes
  // each local list sorted by global — hence by local — neighbor id.
  std::vector<NodeId> adj(g.num_arcs(), 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const EdgeIndex base = g.offset(u);
    const NodeId deg = g.degree(u);
    for (NodeId i = 0; i < deg; ++i) {
      const EdgeIndex e = base + i;
      const size_t slot = node_begin_[bcc.arc_component[e]] + arc_local[e];
      adj[offsets[slot]++] = arc_local[bcc.rev_arc[e]];
    }
  }
  std::copy_backward(offsets.begin(), offsets.end() - 1, offsets.end());
  offsets[0] = 0;

  offsets_ = std::move(offsets);
  adj_ = std::move(adj);
}

Status ComponentViews::FromParts(ArrayRef<uint64_t> node_begin,
                                 ArrayRef<NodeId> nodes,
                                 ArrayRef<EdgeIndex> offsets,
                                 ArrayRef<NodeId> adj, NodeId max_size,
                                 ComponentViews* out) {
  if (node_begin.empty() || offsets.empty()) {
    return Status::InvalidArgument("component view arrays must be non-empty");
  }
  const uint64_t total_nodes = node_begin[node_begin.size() - 1];
  if (nodes.size() != total_nodes || offsets.size() != total_nodes + 1) {
    return Status::InvalidArgument(
        "component view node arrays do not line up");
  }
  // Interior node_begin entries bound every nodes(c)/Neighbors(c, ·) span;
  // a non-monotonic (corrupt) entry would hand out spans with end < begin
  // or past the backing storage. O(ℓ) — negligible next to the load.
  if (node_begin[0] != 0) {
    return Status::InvalidArgument("component view node_begin must start 0");
  }
  for (size_t i = 1; i < node_begin.size(); ++i) {
    if (node_begin[i - 1] > node_begin[i]) {
      return Status::InvalidArgument(
          "component view node_begin is not monotonic");
    }
  }
  if (offsets[0] != 0 || offsets[total_nodes] != adj.size()) {
    return Status::InvalidArgument(
        "component view offsets do not bound the adjacency");
  }
  out->node_begin_ = std::move(node_begin);
  out->nodes_ = std::move(nodes);
  out->offsets_ = std::move(offsets);
  out->adj_ = std::move(adj);
  out->max_size_ = max_size;
  return Status::OK();
}

NodeId ComponentViews::ToLocal(uint32_t c, NodeId global) const {
  const auto members = nodes(c);
  auto it = std::lower_bound(members.begin(), members.end(), global);
  if (it == members.end() || *it != global) return kInvalidNode;
  return static_cast<NodeId>(it - members.begin());
}

}  // namespace saphyra
