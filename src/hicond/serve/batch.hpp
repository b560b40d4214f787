// Batched multi-RHS serving on one cached operator.
//
// A serving process sees many right-hand sides against few operators; this
// is exactly the reuse Theorem 3.5 licenses (the preconditioner depends on
// the graph alone). BatchSolve packs k request vectors into the
// column-major block layout, drives LaplacianSolver::solve_batch (the
// W-lane interleaved PCG/SpMV/V-cycle kernels), and reports per-RHS iteration
// stats plus an FNV-1a hash of each solution's bit pattern -- the cheap
// wire-level fixture for the "batched equals sequential to the last bit"
// guarantee that tests and the serve smoke session assert.
#pragma once

#include <cstdint>
#include <vector>

#include "hicond/solver.hpp"

namespace hicond::serve {

struct BatchSolveResult {
  /// Solutions, one per right-hand side, in request order.
  std::vector<std::vector<double>> x;
  /// Per-RHS iteration stats, bitwise identical to sequential solves.
  std::vector<SolveStats> stats;
  /// FNV-1a 64 over each solution's IEEE-754 bit pattern.
  std::vector<std::uint64_t> solution_hash;
  double solve_seconds = 0.0;
};

/// Hash a solution vector's bit pattern (the wire fixture for bitwise
/// comparisons without shipping the full vector back).
[[nodiscard]] std::uint64_t solution_fingerprint(
    std::span<const double> x);

/// Solve the k systems A x_j = b_j on the solver's graph in one blocked
/// pass. Every rhs must have length n; throws invalid_argument_error
/// otherwise. Zero initial guesses, like LaplacianSolver::solve(b).
[[nodiscard]] BatchSolveResult batch_solve(
    const LaplacianSolver& solver,
    const std::vector<std::vector<double>>& rhs);

}  // namespace hicond::serve
