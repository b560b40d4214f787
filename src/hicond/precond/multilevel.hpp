// Multilevel Steiner preconditioner over a laminar hierarchy.
//
// The two-level Steiner application M^{-1} r = D^{-1} r + R Q^+ R' r needs
// an exact quotient solve; recursing the same construction on Q and
// sandwiching each coarse correction between symmetric Jacobi smoothing
// steps yields a V-cycle that is a fixed symmetric positive operator --
// usable directly inside (flexible) PCG. This is the "hierarchy of Steiner
// preconditioners" of Section 1.1 in solver form.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "hicond/la/cg.hpp"
#include "hicond/la/chebyshev.hpp"
#include "hicond/la/sparse_cholesky.hpp"
#include "hicond/partition/cluster_index.hpp"
#include "hicond/partition/hierarchy.hpp"

namespace hicond {

enum class SmootherKind {
  jacobi,     ///< damped Jacobi sweeps
  chebyshev,  ///< Chebyshev semi-iteration over the upper band of D^-1 A
};

/// Each application is one V-cycle with one pre- and one post-smoothing
/// sweep per level; a Jacobi sweep is damped with weight 0.7.
struct MultilevelOptions {
  SmootherKind smoother = SmootherKind::jacobi;
  int chebyshev_degree = 3;  ///< matrix applications per Chebyshev sweep
};

/// Accumulated per-level V-cycle time attribution (see cycle_stats()).
struct LevelCycleStats {
  std::int64_t calls = 0;
  double seconds = 0.0;  ///< inclusive of the recursion into coarser levels
};

/// Symmetric multilevel cycle built on a LaminarHierarchy; the coarsest
/// level is solved exactly with sparse LDL'.
class MultilevelSteinerSolver {
  struct State;

 public:
  [[nodiscard]] static MultilevelSteinerSolver build(
      LaminarHierarchy hierarchy, const MultilevelOptions& options = {});

  /// Build over `hierarchy`, reusing state from `reuse` where it provably
  /// carries over: when the coarsest graphs are bitwise identical the
  /// coarsest LDL' factorization -- the dominant setup cost on deep
  /// hierarchies -- is shared instead of refactored. This is the
  /// dynamic-repair fast path: a repaired hierarchy whose quotient chain was
  /// preserved (RepairResult::upper_rebuilt == false) keeps the old coarsest
  /// graph, so the factorization transfers. The result is bitwise identical
  /// to a from-scratch build (the factorization is a pure function of the
  /// coarsest graph). Per-level smoother state is rebuilt (smoothers hold
  /// pointers into their own hierarchy and must not alias another's).
  [[nodiscard]] static MultilevelSteinerSolver build(
      LaminarHierarchy hierarchy, const MultilevelOptions& options,
      const MultilevelSteinerSolver& reuse);

  /// Caller-owned scratch for apply<W> with W <= `width`: each level's
  /// vectors. Allocate one per solve; a shared
  /// (cached) solver then holds no per-call scratch. Not for concurrent use,
  /// and only for the solver it was built for (or a copy sharing its state).
  class Workspace {
   public:
    Workspace(const MultilevelSteinerSolver& solver, std::size_t width);

   private:
    friend class MultilevelSteinerSolver;
    const State* owner_;
    struct Level {
      std::vector<double> work;                ///< n*W: A z
      std::vector<double> coarse_r, coarse_z;  ///< m*W: coarse r and z
    };
    std::size_t width_;
    std::vector<Level> levels_;
  };

  /// z = M^{-1} r (one symmetric V-cycle starting from z = 0).
  /// Allocates its own workspace; repeated callers should hold a Workspace.
  void apply(std::span<const double> r, std::span<double> z) const;

  /// Z = M^{-1} R for W residuals stored vertex-interleaved (slot v*W + j
  /// is residual j at vertex v; util/interleave.hpp). One hierarchy
  /// traversal serves all W lanes, and lane j is bitwise identical to
  /// apply() of residual j: every smoother, restriction and prolongation
  /// step evaluates the W = 1 expression on the lane's own slots, and the
  /// coarsest LDL' runs per lane. `ws` must be at least W wide and built for
  /// this solver; r and z must hold n*W slots (n = finest vertex count).
  /// Instantiated for W in {1, 2, 4, 8}.
  template <std::size_t W = 1>
  void apply(std::span<const double> r, std::span<double> z,
             Workspace& ws) const;

  /// Z = M^{-1} R for k residuals stored column-major (column j occupies
  /// [j*n, (j+1)*n)): a thin adapter onto apply<W> over width 8/4/2/1
  /// chunks. Column j is bitwise identical to apply(r_j, z_j).
  void apply_block(std::span<const double> r, std::span<double> z,
                   int k) const;

  [[nodiscard]] LinearOperator as_operator() const;

  [[nodiscard]] int num_levels() const noexcept {
    return static_cast<int>(state_->hierarchy.num_levels());
  }

  /// The hierarchy this cycle runs over (for reports and inspection).
  [[nodiscard]] const LaminarHierarchy& hierarchy() const noexcept {
    return state_->hierarchy;
  }

  /// Wall time spent per level across every apply() so far: entries
  /// [0, num_levels()) are the V-cycle levels, the last entry is the
  /// coarsest direct solve. Updated by the applying thread only; read it
  /// between solves, not concurrently with one.
  [[nodiscard]] std::vector<LevelCycleStats> cycle_stats() const {
    return state_->cycle_stats;
  }

  /// Total vertices across all levels divided by n (grid-complexity metric).
  [[nodiscard]] double operator_complexity() const;

 private:
  struct State {
    LaminarHierarchy hierarchy;
    std::vector<std::vector<double>> inv_diag;  ///< per level
    /// Per-level cluster-major index driving the parallel restriction.
    std::vector<ClusterIndex> restriction;
    std::vector<std::unique_ptr<ChebyshevSmoother>> chebyshev;  ///< per level
    /// Shared so a rebuilt solver with an identical coarsest graph (the
    /// dynamic-repair path) can alias the factorization instead of
    /// refactoring; LaplacianDirectSolver is immutable after construction.
    std::shared_ptr<const LaplacianDirectSolver> coarsest_solver;
    std::vector<LevelCycleStats> cycle_stats;  ///< levels + coarsest
  };

  [[nodiscard]] static MultilevelSteinerSolver build_impl(
      LaminarHierarchy hierarchy, const MultilevelOptions& options,
      const State* reuse);

  template <std::size_t W>
  void cycle(int level, std::span<const double> r, std::span<double> z,
             Workspace& ws) const;
  template <std::size_t W>
  void coarsest_solve(std::span<const double> r, std::span<double> z) const;

  std::shared_ptr<State> state_;
};

}  // namespace hicond
