// Sparse LDL' factorization with fill-reducing orderings, and a grounded
// pseudo-solver for singular graph Laplacians.
//
// This is the "exact" workhorse behind quotient solves (two-level Steiner
// preconditioning), coarsest-level solves in the multilevel hierarchy, and
// the core systems left by partial Cholesky in subgraph preconditioners.
// The algorithm is the classic up-looking LDL' (elimination tree + row
// patterns), in the style of Davis' LDL.
#pragma once

#include <span>
#include <vector>

#include "hicond/la/csr.hpp"

namespace hicond {

enum class Ordering {
  natural,     ///< identity permutation
  rcm,         ///< reverse Cuthill-McKee (bandwidth reducing)
  min_degree,  ///< exact greedy minimum degree (explicit elimination graph)
  amd,         ///< approximate minimum degree on the quotient graph
};

/// Fill-reducing permutation of a symmetric sparsity pattern.
[[nodiscard]] std::vector<vidx> compute_ordering(const CsrMatrix& a,
                                                 Ordering kind);

/// LDL' factorization of a symmetric positive definite CSR matrix.
class SparseLDL {
 public:
  /// Factor P A P' where P is the permutation given by `ordering`.
  /// Throws numeric_error if a pivot is non-positive.
  [[nodiscard]] static SparseLDL factor(const CsrMatrix& a,
                                        Ordering ordering = Ordering::rcm);

  /// Solve A x = b.
  [[nodiscard]] std::vector<double> solve(std::span<const double> b) const;

  /// Solve A x = b into caller-owned `x`, with `work` (dim() slots) holding
  /// the permuted system: allocates nothing, and x is bitwise solve(b).
  void solve(std::span<const double> b, std::span<double> x,
             std::span<double> work) const;

  [[nodiscard]] vidx dim() const noexcept { return n_; }

  /// Nonzeros in the strictly-lower factor (a fill metric).
  [[nodiscard]] eidx factor_nnz() const noexcept {
    return static_cast<eidx>(l_idx_.size());
  }

 private:
  vidx n_ = 0;
  std::vector<vidx> perm_;      // new -> old
  std::vector<vidx> perm_inv_;  // old -> new
  std::vector<eidx> l_offsets_;  // CSC column pointers of L (strict lower)
  std::vector<vidx> l_idx_;
  std::vector<double> l_val_;
  std::vector<double> d_;
};

/// Exact pseudo-solver for the Laplacian of a *connected* graph: grounds one
/// vertex, factors the reduced SPD system once, and solves in the
/// mean-free sense (returned solutions satisfy sum x = 0).
///
/// Ordering default: RCM. Measured on this library's quotient graphs
/// (bench/micro_kernels BM_QuotientFactorization), RCM's cheap ordering
/// beats the 1.3-2x fill reduction of (approximate) minimum degree in total
/// factor+solve time at the sizes the multilevel hierarchy produces; switch
/// to Ordering::amd / min_degree for fill-critical one-off factorizations.
class LaplacianDirectSolver {
 public:
  explicit LaplacianDirectSolver(const Graph& g,
                                 Ordering ordering = Ordering::rcm);

  [[nodiscard]] std::vector<double> solve(std::span<const double> b) const;

  /// In-place variant compatible with LinearOperator signatures.
  void apply(std::span<const double> b, std::span<double> x) const;

  /// apply() through caller-owned `scratch` of scratch_size() slots:
  /// allocates nothing, and x is bitwise apply(b, x). Repeated callers (the
  /// multilevel coarsest solve, once per lane per V-cycle) hold the scratch.
  void apply(std::span<const double> b, std::span<double> x,
             std::span<double> scratch) const;

  /// Slots apply(b, x, scratch) needs: the grounded rhs, its solution and
  /// the LDL' work vector, n - 1 each.
  [[nodiscard]] std::size_t scratch_size() const noexcept {
    return 3 * static_cast<std::size_t>(n_ - 1);
  }

  [[nodiscard]] vidx dim() const noexcept { return n_; }
  [[nodiscard]] eidx factor_nnz() const noexcept {
    return ldl_.factor_nnz();
  }

 private:
  vidx n_ = 0;
  vidx grounded_ = 0;
  SparseLDL ldl_;
};

}  // namespace hicond
