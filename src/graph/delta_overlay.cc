#include "graph/delta_overlay.h"

#include <algorithm>
#include <span>
#include <string>

#include "util/logging.h"

namespace saphyra {

namespace {

std::string EdgeName(NodeId u, NodeId v) {
  return "{" + std::to_string(u) + ", " + std::to_string(v) + "}";
}

}  // namespace

DeltaOverlay::DeltaOverlay(const Graph* base) : base_(base) {
  SAPHYRA_CHECK(base_ != nullptr);
}

EdgeIndex DeltaOverlay::BaseArc(NodeId u, NodeId v) const {
  const auto nbr = base_->neighbors(u);
  auto it = std::lower_bound(nbr.begin(), nbr.end(), v);
  if (it == nbr.end() || *it != v) return kNoArc;
  return base_->offset(u) + static_cast<EdgeIndex>(it - nbr.begin());
}

bool DeltaOverlay::Inserted(NodeId u, NodeId v) const {
  if (inserts_.empty()) return false;
  const std::vector<NodeId>& ins = inserts_[u];
  return std::binary_search(ins.begin(), ins.end(), v);
}

Status DeltaOverlay::Insert(NodeId u, NodeId v) {
  if (u >= num_nodes() || v >= num_nodes()) {
    return Status::InvalidArgument("edge endpoint out of range: " +
                                   EdgeName(u, v) + " with n=" +
                                   std::to_string(num_nodes()));
  }
  if (u == v) {
    return Status::InvalidArgument("self loop rejected: " + EdgeName(u, v));
  }
  const EdgeIndex arc_uv = BaseArc(u, v);
  if (arc_uv != kNoArc) {
    if (!Tombstoned(arc_uv)) {
      return Status::InvalidArgument("duplicate edge: " + EdgeName(u, v) +
                                     " already exists");
    }
    // Revive the tombstoned base edge in place.
    ClearTombstone(arc_uv);
    ClearTombstone(BaseArc(v, u));
    --tombstoned_edges_;
    return Status::OK();
  }
  if (Inserted(u, v)) {
    return Status::InvalidArgument("duplicate edge: " + EdgeName(u, v) +
                                   " already exists");
  }
  if (inserts_.empty()) inserts_.resize(num_nodes());
  for (auto [a, b] : {std::pair{u, v}, std::pair{v, u}}) {
    std::vector<NodeId>& ins = inserts_[a];
    ins.insert(std::lower_bound(ins.begin(), ins.end(), b), b);
  }
  ++inserted_edges_;
  return Status::OK();
}

Status DeltaOverlay::Remove(NodeId u, NodeId v) {
  if (u >= num_nodes() || v >= num_nodes()) {
    return Status::InvalidArgument("edge endpoint out of range: " +
                                   EdgeName(u, v) + " with n=" +
                                   std::to_string(num_nodes()));
  }
  if (Inserted(u, v)) {
    // Cancel the pending insert.
    for (auto [a, b] : {std::pair{u, v}, std::pair{v, u}}) {
      std::vector<NodeId>& ins = inserts_[a];
      ins.erase(std::lower_bound(ins.begin(), ins.end(), b));
    }
    --inserted_edges_;
    return Status::OK();
  }
  const EdgeIndex arc_uv = BaseArc(u, v);
  if (arc_uv == kNoArc || Tombstoned(arc_uv)) {
    return Status::InvalidArgument("no such edge: " + EdgeName(u, v));
  }
  SetTombstone(arc_uv);
  SetTombstone(BaseArc(v, u));
  ++tombstoned_edges_;
  return Status::OK();
}

Graph DeltaOverlay::Materialize() const {
  const NodeId n = num_nodes();
  std::vector<EdgeIndex> offsets(n + 1, 0);
  std::vector<NodeId> adj;
  adj.reserve(static_cast<size_t>(num_edges()) * 2);
  NodeId max_degree = 0;
  for (NodeId u = 0; u < n; ++u) {
    const size_t row_begin = adj.size();
    // Two-pointer merge of u's live base arcs with its insert list, so the
    // row comes out ascending. An insert never duplicates a live base arc,
    // so the merge needs no equality branch for live entries.
    const auto nbr = base_->neighbors(u);
    const EdgeIndex arc_base = base_->offset(u);
    const std::span<const NodeId> ins =
        inserts_.empty() ? std::span<const NodeId>() : inserts_[u];
    size_t bi = 0, ii = 0;
    while (bi < nbr.size() && ii < ins.size()) {
      if (Tombstoned(arc_base + bi)) {
        ++bi;
      } else if (nbr[bi] < ins[ii]) {
        adj.push_back(nbr[bi++]);
      } else {
        adj.push_back(ins[ii++]);
      }
    }
    for (; bi < nbr.size(); ++bi) {
      if (!Tombstoned(arc_base + bi)) adj.push_back(nbr[bi]);
    }
    adj.insert(adj.end(), ins.begin() + ii, ins.end());
    const NodeId d = static_cast<NodeId>(adj.size() - row_begin);
    max_degree = std::max(max_degree, d);
    offsets[u + 1] = adj.size();
  }
  Graph out;
  Status st = Graph::FromCsr(n, max_degree, std::move(offsets),
                             std::move(adj), &out);
  SAPHYRA_CHECK_MSG(st.ok(), st.message());
  return out;
}

}  // namespace saphyra
