// perfbench: one run of one serving workload (see perfbench/README.md).
//
//   perfbench --workload W --seed N --seconds T --trace 0|1
//                    --bin-dir DIR --work-dir DIR --source-dir DIR
//
// --trace 0 runs the untraced end-to-end client for T seconds of request
// time. --trace 1 runs that client for T/3 (the serve.shard metrics come
// from the real router) and then the traced in-process replay for 2T/3.
// Every metric is printed as a line; the last line is a JSON object with
// every metric measured, which perfbench/run.py narrows to the names in
// BENCHMARK.json. Exit status 1 when any check failed.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "client.hpp"
#include "replay.hpp"
#include "util.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

std::string read_text(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

std::string trim(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == ' ' || s.back() == '\r')) s.pop_back();
  return s;
}

/// The checked-out commit when the source tree is a git checkout, read from
/// the .git files directly.
std::string commit_of(const fs::path& root) {
  const fs::path git = root / ".git";
  const std::string head = trim(read_text(git / "HEAD"));
  if (head.rfind("ref: ", 0) != 0) return head.empty() ? "unknown" : head;
  const std::string ref = head.substr(5);
  const std::string direct = trim(read_text(git / ref));
  if (!direct.empty()) return direct;
  std::istringstream packed(read_text(git / "packed-refs"));
  std::string line;
  while (std::getline(packed, line)) {
    if (line.size() > 41 && line.compare(41, std::string::npos, ref) == 0) {
      return line.substr(0, 40);
    }
  }
  return "unknown";
}

/// FNV of the library and service sources, so a record names the code it
/// measured even outside a git checkout.
std::string source_hash(const fs::path& root) {
  std::vector<fs::path> files;
  for (const char* dir : {"src", "examples"}) {
    if (!fs::is_directory(root / dir)) continue;
    for (const auto& e : fs::recursive_directory_iterator(root / dir)) {
      if (e.is_regular_file()) files.push_back(e.path());
    }
  }
  std::sort(files.begin(), files.end());
  std::uint64_t h = kFnvBasis;
  for (const fs::path& f : files) {
    const std::string rel = fs::relative(f, root).string();
    const std::string text = read_text(f);
    h = fnv1a(h, rel.data(), rel.size());
    h = fnv1a(h, text.data(), text.size());
  }
  return hex16(h);
}

double l3_mib() {
  const std::string s = read_text("/sys/devices/system/cpu/cpu0/cache/index3/size");
  double v = std::strtod(s.c_str(), nullptr);
  if (s.find('M') != std::string::npos) return v;
  if (s.find('K') != std::string::npos) return v / 1024.0;
  return v / 1048576.0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds T "
               "--trace 0|1 --bin-dir DIR --work-dir DIR --source-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, bin_dir, work_dir, source_dir;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") seconds = std::strtod(v, nullptr);
    else if (k == "--trace") trace = std::atoi(v);
    else if (k == "--bin-dir") bin_dir = v;
    else if (k == "--work-dir") work_dir = v;
    else if (k == "--source-dir") source_dir = v;
    else return usage();
  }
  if (argc % 2 != 1 || workload.empty() || seconds <= 0.0 || (trace != 0 && trace != 1) ||
      bin_dir.empty() || work_dir.empty() || source_dir.empty()) {
    return usage();
  }
  try {
    const Workload w = parse_workload(workload);
    // A fresh work directory per run: inputs, service logs, records, spans.
    fs::remove_all(work_dir);
    fs::create_directories(work_dir);
    const RunPaths paths{bin_dir, fs::absolute(work_dir).string()};
    const Inputs inputs = generate_inputs(w, seed, paths.work_dir);

    const double client_seconds = trace == 1 ? seconds / 3 : seconds;
    ClientOutcome client = run_client(w, seed, client_seconds, inputs, paths);
    std::int64_t attempted = client.attempted;
    std::int64_t failed = client.failed;
    std::vector<std::string> failures = client.failures;
    Sheet sheet;
    if (trace == 1) {
      ReplayOutcome replay =
          run_replay(w, seed, seconds - client_seconds, inputs, paths, client);
      attempted += replay.attempted;
      failed += replay.failed;
      failures.insert(failures.end(), replay.failures.begin(), replay.failures.end());
      sheet = std::move(replay.sheet);
    }
    sheet.append(client.sheet);

    const Deployment d = deployment(w);
    Sheet context;
    context.add("context.nproc", static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)), "count");
    context.add("context.l3_mib", l3_mib(), "MiB");
    context.add("context.solver_threads", d.solver_threads, "count", "OMP_NUM_THREADS per service process");
    context.add("context.service_processes", d.workers == 0 ? 1 : d.workers + 1, "count");
    context.add("context.in_flight", d.in_flight, "count", "closed loop, one client");
    sheet.append(context);

    std::printf("workload %s seed %llu seconds %g trace %d\n", workload.c_str(),
                static_cast<unsigned long long>(seed), seconds, trace);
    for (const GraphInput& g : inputs.graphs) {
      std::printf("graph %-16s n=%-7lld arcs=%-8lld fp=%s worker=%d\n", g.label.c_str(),
                  static_cast<long long>(g.n), static_cast<long long>(g.arcs),
                  hex16(g.fingerprint).c_str(), g.worker);
    }
    sheet.print_lines();
    for (const std::string& f : failures) std::printf("FAILED: %s\n", f.c_str());

    std::string graphs = "[";
    for (const GraphInput& g : inputs.graphs) {
      graphs += std::string(graphs.size() > 1 ? ", " : "") + "{\"label\": \"" + g.label +
                "\", \"n\": " + std::to_string(g.n) + ", \"arcs\": " + std::to_string(g.arcs) +
                ", \"fingerprint\": \"" + hex16(g.fingerprint) + "\", \"worker\": " +
                std::to_string(g.worker) + "}";
    }
    graphs += "]";
    write_file(paths.work_dir + "/record.json",
               "{\"workload\": \"" + workload + "\", \"seed\": " + std::to_string(seed) +
                   ", \"seconds\": " + num(seconds) + ", \"trace\": " + std::to_string(trace) +
                   ", \"commit\": \"" + commit_of(source_dir) + "\", \"source_fnv\": \"" +
                   source_hash(source_dir) + "\", \"cache_bytes\": " +
                   std::to_string(inputs.cache_bytes) + ", \"attempted\": " +
                   std::to_string(attempted) + ", \"failed\": " + std::to_string(failed) +
                   ", \"graphs\": " + graphs + ", \"metrics\": " + sheet.json_entries() + "}\n");

    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
                failed == 0 ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed), sheet.json_metrics().c_str());
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
