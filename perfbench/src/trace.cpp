#include "trace.hpp"

#include <cstring>

#include "util.hpp"

namespace perfbench {

Tracer::Tracer() : origin_s_(now_s()) {}

int Tracer::begin(const char* name, int parent, std::int64_t request) {
  if (!recording) return -1;
  const double t = 1000.0 * (now_s() - origin_s_);
  spans.push_back({name, t, t, parent, request});
  return static_cast<int>(spans.size()) - 1;
}

double Tracer::end(int index) {
  if (index < 0) return 0.0;
  Span& s = spans[static_cast<std::size_t>(index)];
  s.end_ms = 1000.0 * (now_s() - origin_s_);
  return s.end_ms - s.start_ms;
}

std::map<std::string, double> Tracer::self_ms_by_layer(const char* root,
                                                       std::int64_t first,
                                                       std::int64_t last,
                                                       int* trees) const {
  // Spans are appended in start order and children close before their
  // parent, so one pass finds each span's root and subtracts children.
  const auto selected = [&](const Span& s) {
    return std::strcmp(s.name, root) == 0 && s.request >= first && s.request <= last;
  };
  std::vector<int> root_of(spans.size(), -1);
  std::vector<double> self(spans.size());
  *trees = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    self[i] = s.end_ms - s.start_ms;
    if (s.parent < 0) {
      root_of[i] = static_cast<int>(i);
      if (selected(s)) ++*trees;
    } else {
      root_of[i] = root_of[static_cast<std::size_t>(s.parent)];
      self[static_cast<std::size_t>(s.parent)] -= s.end_ms - s.start_ms;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!selected(spans[static_cast<std::size_t>(root_of[i])])) {
      continue;
    }
    const char* dot = std::strchr(spans[i].name, '.');
    const std::string layer =
        dot == nullptr ? std::string("replay") : std::string(spans[i].name, dot);
    out[layer] += self[i];
  }
  return out;
}

std::string Tracer::to_jsonl() const {
  std::string out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out += "{\"span\":" + std::to_string(i) + ",\"name\":\"" + s.name +
           "\",\"start_ms\":" + num(s.start_ms) + ",\"end_ms\":" + num(s.end_ms) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"request\":" + std::to_string(s.request) + "}\n";
  }
  return out;
}

}  // namespace perfbench
