#ifndef SAPHYRA_BC_EXACT_SUBSPACE_H_
#define SAPHYRA_BC_EXACT_SUBSPACE_H_

#include <cstdint>
#include <vector>

#include "bicomp/isp.h"
#include "graph/graph.h"

namespace saphyra {

/// \brief Output of the Exact_bc oracle (§IV-B, Lemma 17).
struct ExactSubspaceResult {
  /// ℓ̂_v per target (hypothesis order of the PersonalizedSpace): the
  /// expected risk of h_v restricted to the 2-hop exact subspace X̂_c^(A),
  /// under the PISP distribution D_c^(A).
  std::vector<double> exact_risks;
  /// λ̂ = Pr_{x∼D_c^(A)}[x ∈ X̂_c^(A)].
  double lambda_hat = 0.0;
  /// Diagnostics: number of ordered (s,t) pairs at distance 2 examined.
  uint64_t pairs_examined = 0;
};

/// \brief Exact_bc: exact risks over the 2-hop exact subspace.
///
/// The exact subspace X̂ (Eq. 29) is the set of length-2 intra-component
/// shortest paths with an inner node in A. For every ordered pair (s,t) at
/// distance 2 whose two-hop connections run inside one biconnected
/// component, the pair mass is q_st/(σ_st·γ·η) per path; summing over the
/// σ^A_st paths whose middle lies in A yields both λ̂ and, per middle v,
/// the contribution to ℓ̂_v.
///
/// Every source is drawn from B = the neighbors of A: any 2-hop path with a
/// middle in A starts (and ends) at a neighbor of that middle, and any
/// shortest path witnessing R(h_v) > 0 contains such a 2-hop subpath, which
/// is why the exact subspace eliminates false zeros (Lemma 19).
///
/// Runs in O(Σ_{s∈B} Σ_{v∈adj(s)} deg(v)) = O(K) time (Lemma 18) and O(n)
/// space. Each middle v is scanned through the (s,v) component's view,
/// so an (s,v) costs O(deg_C(v)) plus one O(log |C|) search per (s, C),
/// and a hub whose arcs mostly leave that component (leaf bridges) does
/// not make the pass quadratic in its degree.
ExactSubspaceResult ComputeExactSubspace(const PersonalizedSpace& space);

/// \brief True iff path (s, mid, t) lies in the exact subspace of `space`:
/// d(s,t) = 2 via an intra-component 2-hop path and mid ∈ A. Shared by the
/// rejection step of Gen_bc (Algorithm 2 line 6) and the tests.
bool InExactSubspace(const PersonalizedSpace& space,
                     const std::vector<NodeId>& path_nodes);

}  // namespace saphyra

#endif  // SAPHYRA_BC_EXACT_SUBSPACE_H_
