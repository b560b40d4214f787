// Explicit Gremban reduction for Steiner preconditioners.
//
// Gremban & Miller showed a Steiner graph S (extra vertices allowed) can
// precondition A by solving the extended system S [x; y] = [r; 0] and
// keeping x: the effective preconditioner is the Schur complement B_S of S
// onto the original vertices, and sigma(A, S) = sigma(A, B_S)
// (Proposition 6.1 in Boman-Hendrickson, quoted as Lemma 3.2's setting).
//
// The SteinerPreconditioner class exploits the closed-form leaf elimination
// of Definition 3.1 graphs; this test-side reference is the general route --
// a sparse factorization of the full (n+m)-vertex Steiner Laplacian -- usable
// with ANY Steiner graph. test_gremban.cpp uses it as an independent
// cross-check of the closed form.
#pragma once

#include <memory>

#include "hicond/graph/graph.hpp"
#include "hicond/la/cg.hpp"
#include "hicond/la/sparse_cholesky.hpp"

namespace hicond {

/// Preconditioner application through the explicit Steiner system: factor
/// the (n+m)-vertex Laplacian of the Steiner graph once, then each apply
/// pads the residual with zeros, solves, and truncates.
class GrembanSolver {
 public:
  /// `steiner` must be connected with its first `num_original` vertices
  /// corresponding to the vertices of the preconditioned graph.
  GrembanSolver(const Graph& steiner, vidx num_original);

  /// z = (B_S)^+ r via the extended solve (z is mean-free over the original
  /// vertices).
  void apply(std::span<const double> r, std::span<double> z) const;

  [[nodiscard]] LinearOperator as_operator() const;

  [[nodiscard]] vidx num_original() const noexcept { return n_; }
  [[nodiscard]] vidx num_steiner() const noexcept { return m_; }

 private:
  vidx n_ = 0;
  vidx m_ = 0;
  std::shared_ptr<LaplacianDirectSolver> solver_;
};

}  // namespace hicond
