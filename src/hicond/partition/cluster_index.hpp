// Cluster-major index of a decomposition assignment: for each cluster, the
// sorted list of its member vertices in CSR form.
//
// This is the owner-computes backbone of every parallel restriction in the
// preconditioning layer: `restrict_sum` assigns one cluster per iteration,
// each iteration reads only its own members and writes only its own output
// slot, and members are summed in ascending vertex order -- so the result
// is bitwise identical for every thread count (docs/PARALLELISM.md). The
// serial alternative (scatter-add over vertices) is what it replaces; an
// atomics-based scatter would be nondeterministic in the accumulation order.
#pragma once

#include <span>
#include <vector>

#include "hicond/util/common.hpp"
#include "hicond/util/parallel.hpp"

namespace hicond {

class ClusterIndex {
 public:
  /// Build from a dense assignment (every value in [0, num_clusters)).
  [[nodiscard]] static ClusterIndex build(std::span<const vidx> assignment,
                                          vidx num_clusters);

  [[nodiscard]] vidx num_clusters() const noexcept {
    return static_cast<vidx>(offsets_.size()) - 1;
  }
  [[nodiscard]] std::size_t num_vertices() const noexcept {
    return members_.size();
  }

  /// Member vertices of cluster c, ascending.
  [[nodiscard]] std::span<const vidx> members(vidx c) const {
    HICOND_ASSERT(c >= 0 && c < num_clusters());
    return {members_.data() + offsets_[static_cast<std::size_t>(c)],
            static_cast<std::size_t>(
                offsets_[static_cast<std::size_t>(c) + 1] -
                offsets_[static_cast<std::size_t>(c)])};
  }

  /// out[c] = sum of x[v] over the members of c, in ascending vertex order.
  /// Parallel over clusters; deterministic for every thread count.
  void restrict_sum(std::span<const double> x, std::span<double> out) const;

  /// The same restriction over W lanes of per-vertex values produced on the
  /// fly: row(v, acc) adds vertex v's W values into acc[0..W), members in
  /// ascending order, and out[c*W + j] receives lane j of cluster c. The
  /// V-cycle passes its residual row r - A z here, so the residual is
  /// summed where it is formed and never stored.
  template <std::size_t W, typename Row>
  void restrict_rows(Row&& row, std::span<double> out) const {
    HICOND_CHECK(out.size() == static_cast<std::size_t>(num_clusters()) * W,
                 "output size mismatch");
    parallel_for(offsets_.size() - 1, [&](std::size_t c) {
      double acc[W] = {};
      for (std::size_t k = offsets_[c]; k < offsets_[c + 1]; ++k) {
        row(static_cast<std::size_t>(members_[k]), acc);
      }
      for (std::size_t j = 0; j < W; ++j) out[c * W + j] = acc[j];
    });
  }

  /// Structural invariants: offsets monotone, members a permutation of
  /// [0, num_vertices) grouped by cluster, each group ascending.
  void validate(std::span<const vidx> assignment) const;

 private:
  std::vector<std::size_t> offsets_;  ///< size num_clusters + 1
  std::vector<vidx> members_;         ///< size num_vertices
};

}  // namespace hicond
