#include "gremban.hpp"

#include "hicond/graph/connectivity.hpp"

namespace hicond {

GrembanSolver::GrembanSolver(const Graph& steiner, vidx num_original)
    : n_(num_original), m_(steiner.num_vertices() - num_original) {
  HICOND_CHECK(num_original >= 1 && num_original <= steiner.num_vertices(),
               "bad original vertex count");
  HICOND_CHECK(is_connected(steiner), "Steiner graph must be connected");
  solver_ = std::make_shared<LaplacianDirectSolver>(steiner);
}

void GrembanSolver::apply(std::span<const double> r,
                          std::span<double> z) const {
  HICOND_CHECK(r.size() == static_cast<std::size_t>(n_), "rhs size mismatch");
  HICOND_CHECK(z.size() == static_cast<std::size_t>(n_), "z size mismatch");
  // Project the residual onto the mean-free subspace of the *original*
  // vertices (the preconditioner acts as P B_S^+ P, which keeps it
  // symmetric for arbitrary input), pad with zeros on the Steiner vertices,
  // solve the extended Laplacian system, keep the original block.
  double r_mean = 0.0;
  for (double v : r) r_mean += v;
  r_mean /= static_cast<double>(n_);
  std::vector<double> padded(static_cast<std::size_t>(n_ + m_), 0.0);
  for (std::size_t i = 0; i < r.size(); ++i) padded[i] = r[i] - r_mean;
  const std::vector<double> full = solver_->solve(padded);
  double mean = 0.0;
  for (vidx v = 0; v < n_; ++v) mean += full[static_cast<std::size_t>(v)];
  mean /= static_cast<double>(n_);
  for (vidx v = 0; v < n_; ++v) {
    z[static_cast<std::size_t>(v)] = full[static_cast<std::size_t>(v)] - mean;
  }
}

LinearOperator GrembanSolver::as_operator() const {
  auto self = *this;  // shares the factorization
  return [self](std::span<const double> r, std::span<double> z) {
    self.apply(r, z);
  };
}

}  // namespace hicond
