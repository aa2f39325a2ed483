#include "bicomp/biconnected.h"

#include <algorithm>

#include "util/logging.h"

namespace saphyra {

std::vector<EdgeIndex> ComputeReverseArcs(const Graph& g) {
  // Counting sweep instead of a per-arc binary search: scanning sources in
  // ascending order visits each node's in-neighbors in ascending order too
  // (adjacency lists are sorted and deduplicated), so the next free slot in
  // u's list is exactly where the current source sits in it.
  std::vector<EdgeIndex> rev(g.num_arcs());
  std::vector<NodeId> cursor(g.num_nodes(), 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EdgeIndex base = g.offset(v);
    auto nbr = g.neighbors(v);
    for (size_t i = 0; i < nbr.size(); ++i) {
      NodeId u = nbr[i];
      rev[g.offset(u) + cursor[u]++] = base + static_cast<EdgeIndex>(i);
    }
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    // Every arc (u, v) must have been matched by the reverse arc (v, u);
    // anything else means the adjacency structure is not symmetric.
    SAPHYRA_CHECK(cursor[u] == g.degree(u));
  }
  return rev;
}

namespace {

/// Explicit DFS frame for the iterative Hopcroft–Tarjan algorithm.
struct Frame {
  NodeId v;
  EdgeIndex arc;      // next arc of v to examine (absolute CSR index)
  EdgeIndex arc_end;  // one past v's last arc
  EdgeIndex parent_arc;  // arc (parent -> v) that entered v, or kNone
};

constexpr EdgeIndex kNoArc = static_cast<EdgeIndex>(-1);

}  // namespace

BiconnectedComponents ComputeBiconnectedComponents(const Graph& g) {
  const NodeId n = g.num_nodes();
  BiconnectedComponents out;
  out.arc_component.assign(g.num_arcs(), kInvalidComp);
  out.is_cutpoint.assign(n, 0);
  out.node_component.assign(n, kInvalidComp);
  out.cutpoint_comp_count_.assign(n, 0);
  out.rev_arc = ComputeReverseArcs(g);

  std::vector<uint32_t> disc(n, 0);  // 0 = unvisited; discovery times from 1
  std::vector<uint32_t> low(n, 0);
  std::vector<EdgeIndex> edge_stack;  // arcs (u->v) of the current subtree
  std::vector<Frame> stack;
  uint32_t timer = 0;

  auto pop_component = [&](EdgeIndex until_arc) {
    // Pop arcs up to and including `until_arc`; they form one component.
    uint32_t comp = out.num_components++;
    for (;;) {
      SAPHYRA_CHECK(!edge_stack.empty());
      EdgeIndex e = edge_stack.back();
      edge_stack.pop_back();
      out.arc_component[e] = comp;
      out.arc_component[out.rev_arc[e]] = comp;
      if (e == until_arc) break;
    }
  };

  for (NodeId root = 0; root < n; ++root) {
    if (disc[root] != 0 || g.degree(root) == 0) continue;
    disc[root] = low[root] = ++timer;
    stack.push_back(
        {root, g.offset(root), g.offset(root) + g.degree(root), kNoArc});
    uint32_t root_children = 0;
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.arc < f.arc_end) {
        EdgeIndex e = f.arc++;
        NodeId w = g.neighbors(f.v)[e - g.offset(f.v)];
        if (f.parent_arc != kNoArc && out.rev_arc[e] == f.parent_arc) {
          continue;  // the tree edge back to the parent
        }
        if (disc[w] == 0) {
          // Tree edge.
          disc[w] = low[w] = ++timer;
          edge_stack.push_back(e);
          if (f.v == root) ++root_children;
          stack.push_back({w, g.offset(w), g.offset(w) + g.degree(w), e});
        } else if (disc[w] < disc[f.v]) {
          // Back edge to an ancestor.
          edge_stack.push_back(e);
          low[f.v] = std::min(low[f.v], disc[w]);
        }
      } else {
        // f.v is fully explored; fold into the parent.
        Frame finished = f;
        stack.pop_back();
        if (finished.parent_arc == kNoArc) continue;  // root done
        NodeId parent = stack.back().v;
        low[parent] = std::min(low[parent], low[finished.v]);
        if (low[finished.v] >= disc[parent]) {
          // `parent` separates the subtree of finished.v: close a component.
          if (parent != root || root_children >= 2) {
            out.is_cutpoint[parent] = 1;
          }
          pop_component(finished.parent_arc);
        }
      }
    }
    SAPHYRA_CHECK(edge_stack.empty());
    // Root articulation rule: handled above via root_children (the root is a
    // cutpoint iff it has >= 2 DFS children).
    if (root_children >= 2) out.is_cutpoint[root] = 1;
  }

  // Canonical numbering + derived node fields, shared with the
  // incremental repair: components ordered by their smallest CSR arc index
  // rather than DFS pop order, making the labeling a pure function of the
  // graph. This is what keeps `.sgr` decomposition sections bitwise
  // identical across incremental repairs and a from-scratch pass.
  const uint32_t dfs_components = out.num_components;
  FinalizeBicompFields(g, dfs_components, /*derive_cutpoints=*/false, &out);
  SAPHYRA_CHECK(out.num_components == dfs_components);
  return out;
}

void FinalizeBicompFields(const Graph& g, uint32_t label_space,
                          bool derive_cutpoints,
                          BiconnectedComponents* result) {
  BiconnectedComponents& out = *result;
  const NodeId n = g.num_nodes();
  {
    std::vector<uint32_t> renumber(label_space, kInvalidComp);
    uint32_t next = 0;
    for (EdgeIndex e = 0; e < g.num_arcs(); ++e) {
      uint32_t& id = renumber[out.arc_component[e]];
      if (id == kInvalidComp) id = next++;
    }
    for (uint32_t& c : out.arc_component) c = renumber[c];
    out.num_components = next;
  }

  // Member lists, node_component and cutpoint multiplicities in two
  // counting passes over the arc labels. Sources are scanned in ascending
  // order, so appending u to each component it touches keeps every list
  // sorted; a per-component last-seen stamp drops the repeats of u.
  // node_component[u] is the smallest component u is in, the one the
  // ascending-component scan this replaces met first.
  const uint32_t num_comps = out.num_components;
  std::vector<uint64_t> begin(static_cast<size_t>(num_comps) + 1, 0);
  std::vector<NodeId> stamp(num_comps, kInvalidNode);
  out.node_component.assign(n, kInvalidComp);
  out.cutpoint_comp_count_.assign(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    const EdgeIndex base = g.offset(u);
    for (NodeId i = 0; i < g.degree(u); ++i) {
      const uint32_t c = out.arc_component[base + i];
      SAPHYRA_CHECK(c != kInvalidComp);
      if (stamp[c] == u) continue;
      stamp[c] = u;
      ++begin[c + 1];
      ++out.cutpoint_comp_count_[u];
      out.node_component[u] = std::min(out.node_component[u], c);
    }
  }
  for (uint32_t c = 0; c < num_comps; ++c) begin[c + 1] += begin[c];
  std::vector<NodeId> nodes(begin[num_comps]);
  {
    std::vector<uint64_t> cursor(begin.begin(), begin.end() - 1);
    std::fill(stamp.begin(), stamp.end(), kInvalidNode);
    for (NodeId u = 0; u < n; ++u) {
      const EdgeIndex base = g.offset(u);
      for (NodeId i = 0; i < g.degree(u); ++i) {
        const uint32_t c = out.arc_component[base + i];
        if (stamp[c] == u) continue;
        stamp[c] = u;
        nodes[cursor[c]++] = u;
      }
    }
  }
  // Shared, so the views (and any copy of the decomposition) reference
  // these two arrays rather than duplicating them.
  out.component_nodes =
      ComponentMembers(ArrayRef<uint64_t>::Shared(std::move(begin)),
                       ArrayRef<NodeId>::Shared(std::move(nodes)));
  if (derive_cutpoints) {
    out.is_cutpoint.assign(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      if (out.cutpoint_comp_count_[v] > 1) out.is_cutpoint[v] = 1;
    }
  } else {
    for (NodeId v = 0; v < n; ++v) {
      // Consistency: multiplicity > 1 iff flagged as cutpoint.
      SAPHYRA_CHECK((out.cutpoint_comp_count_[v] > 1) ==
                    (out.is_cutpoint[v] != 0));
    }
  }
}

}  // namespace saphyra
