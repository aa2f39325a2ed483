#ifndef SAPHYRA_BICOMP_INCREMENTAL_H_
#define SAPHYRA_BICOMP_INCREMENTAL_H_

/// \file
/// Incremental repair of the biconnected decomposition under one edge
/// mutation — the serving tier's alternative to re-running a full pass
/// on every {"op":"update"} request.
///
/// The repair exploits the two classic locality facts about biconnected
/// components:
///   - inserting {u,v} inside one connected component merges exactly the
///     blocks on the block-cut-tree path between u and v (plus the new
///     edge) into one block; every block off that path is untouched.
///     Inserting across components (or at an isolated endpoint) adds the
///     new edge as its own bridge block and touches nothing else.
///   - deleting an edge can only split the block that contained it; all
///     other blocks are untouched.
/// So the repair transfers the old per-arc labels onto the new CSR,
/// recomputes the decomposition on the small "dirty" edge set
/// (path-union on insert, the containing block on delete), grafts the
/// sub-labels back, and reruns the shared canonical finalization
/// (FinalizeBicompFields). Because every derived field is a pure function
/// of the arc partition and the finalization is shared, the repaired
/// struct is BITWISE identical to ComputeBiconnectedComponents(new_graph)
/// — the property tests/incremental_bicomp_test.cc and the mutation
/// differential harness pin.
///
/// One mutation per call, by design: the dirty-region computation is
/// exact for a single edge change, whereas batching mutations can route
/// the true block-cut-tree path through blocks the stale tree no longer
/// describes. The serving tier applies one update request at a time
/// anyway, so the decomposition is exact after every apply.
///
/// When the dirty region exceeds `max_dirty_fraction` of the graph's
/// arcs (a mutation bridging two huge blocks), repairing costs about as
/// much as recomputing — the repair falls back to the full pass, which
/// honors the same canonicalization contract, so the fallback is
/// invisible in the output bytes.

#include <cstdint>

#include "bicomp/biconnected.h"
#include "graph/graph.h"

namespace saphyra {

enum class EdgeMutationKind : uint8_t { kInsert, kDelete };

/// \brief One undirected edge mutation (u < v not required).
struct EdgeMutation {
  EdgeMutationKind kind = EdgeMutationKind::kInsert;
  NodeId u = 0;
  NodeId v = 0;
};

struct IncrementalBicompOptions {
  /// Fall back to the full pass when the dirty region exceeds this
  /// fraction of the new graph's arcs.
  double max_dirty_fraction = 0.25;
};

/// \brief Observability of one repair (tests pin the routing decisions).
struct IncrementalBicompStats {
  bool fell_back = false;      ///< full pass ran instead
  uint64_t dirty_arcs = 0;     ///< arcs of the recomputed region
  uint32_t dirty_blocks = 0;   ///< old components in the dirty set
  /// Member and arc-label entries the insert's block-cut-tree walk read:
  /// at most Σ|C_i| + #arcs + deg(v), however many blocks share a
  /// cutpoint.
  uint64_t walk_reads = 0;
};

/// \brief Repair `old_bcc` — the decomposition of `old_graph` — into the
/// decomposition of `new_graph`, which must differ from `old_graph` by
/// exactly the single mutation `mut` (same node count; the edge present
/// on exactly one side). Bitwise identical to a from-scratch
/// ComputeBiconnectedComponents(new_graph).
BiconnectedComponents RepairBiconnectedComponents(
    const Graph& old_graph, const BiconnectedComponents& old_bcc,
    const Graph& new_graph, const EdgeMutation& mut,
    const IncrementalBicompOptions& opts = {},
    IncrementalBicompStats* stats = nullptr);

}  // namespace saphyra

#endif  // SAPHYRA_BICOMP_INCREMENTAL_H_
