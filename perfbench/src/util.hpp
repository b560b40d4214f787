// Small helpers shared by the benchmark program: its own clock, random
// numbers, FNV hash, order statistics and the metric sheet it prints.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock.
double now_s();

/// splitmix64: the benchmark's own generator for every seeded choice it
/// makes (streams, Zipf draws, update batches, explicit right-hand sides),
/// independent of the library's Rng.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();                         ///< [0, 1)
  double uniform(double lo, double hi);     ///< [lo, hi)
  std::uint64_t below(std::uint64_t n);     ///< [0, n)

 private:
  std::uint64_t state_;
};

/// Derive an independent seed from a base seed and a tag.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag);

/// FNV-1a 64 over raw bytes, continuing from `hash`.
std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t len);
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// FNV-1a 64 over the IEEE-754 bytes of `x` (the wire's solution_fnv).
std::uint64_t vector_fnv(std::span<const double> x);
std::string hex16(std::uint64_t v);

double median(std::vector<double> v);

/// Highest percentile with at least ten samples beyond it: the sorted value
/// at index n-11. `valid` is false with fewer than 11 samples.
struct Tail {
  bool valid = false;
  double value = 0.0;
  double percentile = 0.0;  ///< 100 * (n - 10) / n
  std::size_t samples = 0;
};
Tail tail(std::vector<double> v);

/// The metrics one run reports: every entry is printed as a readable line and
/// goes into the program's final JSON object, which run.py narrows to the
/// names BENCHMARK.json lists for the run's trace mode.
class Sheet {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  /// Latency pair: <stem>_p50_ms and <stem>_tail_ms with its percentile.
  void add_latency(const std::string& stem, const std::vector<double>& ms);
  void append(const Sheet& other);
  void print_lines() const;
  /// {"name": {"value": v, "unit": u}, ...} over every entry.
  [[nodiscard]] std::string json_metrics() const;
  /// Entries as a JSON array of {name, value, unit, note}.
  [[nodiscard]] std::string json_entries() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Entry> entries_;
};

/// Format a double with all its digits (%.17g), "null" when not finite.
std::string num(double v);

/// Write `text` to `path`, replacing it.
void write_file(const std::string& path, const std::string& text);

}  // namespace perfbench
