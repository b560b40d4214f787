#include "util.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t SplitMix::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double SplitMix::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

std::uint64_t SplitMix::below(std::uint64_t n) { return next() % n; }

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  SplitMix m(seed ^ (tag * 0xd1342543de82ef95ULL));
  m.next();
  return m.next();
}

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t vector_fnv(std::span<const double> x) {
  return fnv1a(kFnvBasis, x.data(), x.size() * sizeof(double));
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.size() < 11) {
    return t;
  }
  std::sort(v.begin(), v.end());
  t.valid = true;
  t.value = v[v.size() - 11];
  t.percentile = 100.0 * static_cast<double>(v.size() - 10) /
                 static_cast<double>(v.size());
  return t;
}

std::string num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Sheet::add(const std::string& name, double value, const std::string& unit,
                const std::string& note) {
  entries_.push_back({name, value, unit, note});
}

void Sheet::add_latency(const std::string& stem, const std::vector<double>& ms) {
  add(stem + "_p50_ms", median(ms), "ms",
      "n=" + std::to_string(ms.size()));
  const Tail t = tail(ms);
  if (t.valid) {
    char note[96];
    std::snprintf(note, sizeof note, "p%.1f, n=%zu, 10 samples beyond",
                  t.percentile, t.samples);
    add(stem + "_tail_ms", t.value, "ms", note);
  } else {
    // Fewer than 11 samples: no percentile has ten samples beyond it; the
    // maximum stands in and the note says so.
    add(stem + "_tail_ms", ms.empty() ? 0.0 : *std::max_element(ms.begin(), ms.end()),
        "ms", "max, n=" + std::to_string(ms.size()) + " (< 11 samples)");
  }
}

void Sheet::print_lines() const {
  for (const Entry& e : entries_) {
    std::printf("%-28s %16.6g %-6s %s\n", e.name.c_str(), e.value,
                e.unit.c_str(), e.note.c_str());
  }
}

void Sheet::append(const Sheet& other) {
  entries_.insert(entries_.end(), other.entries_.begin(), other.entries_.end());
}

std::string Sheet::json_metrics() const {
  std::string out = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    out += (i == 0 ? "\"" : ", \"") + e.name + "\": {\"value\": " + num(e.value) +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  return out + "}";
}

std::string Sheet::json_entries() const {
  std::string out = "[";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    out += (i == 0 ? "\n  {\"name\": \"" : ",\n  {\"name\": \"") + e.name +
           "\", \"value\": " + num(e.value) + ", \"unit\": \"" + e.unit +
           "\", \"note\": \"" + e.note + "\"}";
  }
  return out + "\n]";
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) {
    throw std::runtime_error("cannot write " + path);
  }
}

}  // namespace perfbench
