// Parallel dense vector kernels used by the iterative solvers.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "hicond/util/common.hpp"

namespace hicond::la {

[[nodiscard]] double dot(std::span<const double> x, std::span<const double> y);

/// Per-lane dot products of two W-lane vertex-interleaved blocks
/// (util/interleave.hpp) in one pass: lane j is bitwise identical to dot()
/// of the lane-j vectors. Instantiated for W in {1, 2, 4, 8}.
template <std::size_t W>
[[nodiscard]] std::array<double, W> dot_lanes(std::span<const double> x,
                                              std::span<const double> y);

[[nodiscard]] double norm2(std::span<const double> x);

/// y += alpha * x.
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// y = x + beta * y (the PCG direction update).
void xpby(std::span<const double> x, double beta, std::span<double> y);

void scale(double alpha, std::span<double> x);

void copy(std::span<const double> src, std::span<double> dst);

void fill(std::span<double> x, double value);

/// Subtract the mean: projects onto the complement of the constant vector.
/// W > 1 treats x as W vertex-interleaved vectors and centres each lane on
/// its own mean, bitwise as the W = 1 call would. Instantiated for W in
/// {1, 2, 4, 8}.
template <std::size_t W = 1>
void remove_mean(std::span<double> x);

/// Subtract the weighted mean so that sum_i w_i x_i = 0.
void remove_weighted_mean(std::span<double> x, std::span<const double> w);

/// Max |x_i - y_i|.
[[nodiscard]] double max_abs_diff(std::span<const double> x,
                                  std::span<const double> y);

}  // namespace hicond::la
