// Spans owned by the benchmark: each one times a call into a layer's public
// function from the replay. Spans stay in memory and are written when
// the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name;       ///< "<layer>.<call>", e.g. "la.solve"
  double start_ms;        ///< since the tracer was created
  double end_ms;
  int parent;             ///< index into Tracer::spans, -1 for a root
  std::int64_t request;   ///< request id shared by the spans of one request
};

class Tracer {
 public:
  Tracer();
  /// Open a span; returns its index, or -1 while recording is off.
  int begin(const char* name, int parent, std::int64_t request);
  /// Close span `index` (no-op for -1); returns its duration in ms.
  double end(int index);

  /// Recording switch: the replay alternates it per request so the same
  /// stream yields traced and untraced latencies.
  bool recording = true;
  std::vector<Span> spans;

  /// Self time per layer (name prefix before the first '.') over the trees
  /// whose root is named `root` and whose request id lies in [first, last]:
  /// each span's duration minus its children's. `trees` counts the trees.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer(
      const char* root, std::int64_t first, std::int64_t last, int* trees) const;

  /// JSON lines: one span per line.
  [[nodiscard]] std::string to_jsonl() const;

 private:
  double origin_s_;
};

/// RAII span around one call.
class Scope {
 public:
  Scope(Tracer& t, const char* name, int parent, std::int64_t request)
      : t_(t), index_(t.begin(name, parent, request)) {}
  ~Scope() { t_.end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  /// Close early and return the duration in ms (0 when not recording).
  double close() {
    const double ms = t_.end(index_);
    index_ = -1;
    return ms;
  }
  [[nodiscard]] int index() const { return index_; }

 private:
  Tracer& t_;
  int index_;
};

}  // namespace perfbench
