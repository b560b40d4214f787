#include "hicond/partition/backends/backend.hpp"

#include <cstring>
#include <utility>

#include "hicond/obs/json.hpp"
#include "hicond/partition/backends/fixed_degree_backend.hpp"
#include "hicond/partition/backends/louvain.hpp"
#include "hicond/partition/backends/low_diameter.hpp"
#include "hicond/util/common.hpp"

namespace hicond::partition {

namespace detail {

void append_key_int(std::string& out, const char* name, long long v) {
  out += name;
  out += '=';
  out += std::to_string(v);
  out += ';';
}

void append_key_double(std::string& out, const char* name, double v) {
  out += name;
  out += '=';
  obs::append_double(out, v);
  out += ';';
}

}  // namespace detail

namespace {

/// Names of the always-registered built-in backends, in registry order.
/// Parsed by the backend-coverage lint rule (tools/check_project_rules.py),
/// which requires every name here to be exercised by the prop suite.
constexpr const char* kBuiltinBackendNames[] = {
    "fixed_degree",
    "louvain",
    "lowdiam",
};

std::vector<std::unique_ptr<PartitionerBackend>>& registry() {
  static std::vector<std::unique_ptr<PartitionerBackend>> backends = [] {
    std::vector<std::unique_ptr<PartitionerBackend>> b;
    b.push_back(std::make_unique<FixedDegreeBackend>());
    b.push_back(std::make_unique<LouvainBackend>());
    b.push_back(std::make_unique<LowDiameterBackend>());
    for (std::size_t i = 0; i < b.size(); ++i) {
      HICOND_CHECK(b[i]->name() == kBuiltinBackendNames[i],
                   "kBuiltinBackendNames is out of sync with the registry");
    }
    return b;
  }();
  return backends;
}

}  // namespace

const PartitionerBackend* find_backend(std::string_view name) noexcept {
  for (const auto& backend : registry()) {
    if (backend->name() == name) {
      return backend.get();
    }
  }
  return nullptr;
}

const PartitionerBackend& get_backend(std::string_view name) {
  const PartitionerBackend* backend = find_backend(name);
  if (backend == nullptr) {
    std::string known;
    for (const auto& b : registry()) {
      if (!known.empty()) known += ", ";
      known += b->name();
    }
    throw invalid_argument_error("unknown partitioner backend \"" +
                                 std::string(name) + "\" (registered: " +
                                 known + ")");
  }
  return *backend;
}

std::vector<const PartitionerBackend*> registered_backends() {
  std::vector<const PartitionerBackend*> out;
  out.reserve(registry().size());
  for (const auto& backend : registry()) {
    out.push_back(backend.get());
  }
  return out;
}

void register_backend(std::unique_ptr<PartitionerBackend> backend) {
  HICOND_CHECK(backend != nullptr, "cannot register a null backend");
  HICOND_CHECK(find_backend(backend->name()) == nullptr,
               "a backend with this name is already registered");
  registry().push_back(std::move(backend));
}

std::string backend_options_key(const BackendOptions& options) {
  const PartitionerBackend& backend = get_backend(options.backend);
  std::string key = "backend=";
  key += options.backend;
  key += ';';
  key += backend.options_key(options);
  return key;
}

void validate_backend_output(const Graph& g, const Decomposition& d,
                             std::string_view backend_name) {
  // One fused O(n + m) scan subsuming Decomposition::validate: a restricted
  // DFS per cluster. Every vertex is checked for a well-ranged cluster id at
  // the moment it becomes a root (DFS discovery only compares ids, so an
  // out-of-range vertex always surfaces as its own root). A cluster reached
  // from two distinct roots is internally disconnected -- its closure
  // conductance is 0 and quotient contraction would break -- and a cluster
  // never rooted at all is empty; both reject the output at the boundary.
  HICOND_CHECK(d.num_clusters >= 0, "cluster count must be nonnegative");
  HICOND_CHECK(d.assignment.size() == static_cast<std::size_t>(g.num_vertices()),
               "assignment size mismatch (orphan or surplus vertices)");
  const vidx n = g.num_vertices();
  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  std::vector<char> rooted(static_cast<std::size_t>(d.num_clusters), 0);
  std::vector<vidx> stack;
  for (vidx root = 0; root < n; ++root) {
    if (visited[static_cast<std::size_t>(root)]) continue;
    const vidx c = d.assignment[static_cast<std::size_t>(root)];
    HICOND_CHECK(c >= 0 && c < d.num_clusters,
                 "cluster id out of range (unassigned vertex?)");
    HICOND_CHECK(!rooted[static_cast<std::size_t>(c)],
                 "backend \"" + std::string(backend_name) +
                     "\" produced an internally disconnected cluster");
    rooted[static_cast<std::size_t>(c)] = 1;
    visited[static_cast<std::size_t>(root)] = 1;
    stack.assign(1, root);
    while (!stack.empty()) {
      const vidx v = stack.back();
      stack.pop_back();
      for (const vidx u : g.neighbors(v)) {
        if (visited[static_cast<std::size_t>(u)] ||
            d.assignment[static_cast<std::size_t>(u)] != c) {
          continue;
        }
        visited[static_cast<std::size_t>(u)] = 1;
        stack.push_back(u);
      }
    }
  }
  for (vidx c = 0; c < d.num_clusters; ++c) {
    HICOND_CHECK(rooted[static_cast<std::size_t>(c)], "empty cluster id");
  }
}

Decomposition checked_decompose(const Graph& g,
                                const BackendOptions& options) {
  const PartitionerBackend& backend = get_backend(options.backend);
  Decomposition d = backend.decompose(g, options);
  validate_backend_output(g, d, backend.name());
  return d;
}

}  // namespace hicond::partition
