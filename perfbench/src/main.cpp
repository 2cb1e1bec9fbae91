// perfbench — runs one named workload of the MARP benchmark from a seed,
// checks its outputs, and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--corrupt-result]
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1 runs
// traced twins and prints the per-layer metrics. The last stdout line is the
// result object; the line before it carries provenance and detail (sample
// counts, quartiles, workload-specific latencies). A run whose correctness
// gate fails exits 1 (its result line still prints, with correct=false).
#include <unistd.h>

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload contended-full|partial-readmix|cluster-private"
               " --seed N --seconds S --trace 0|1 [--out-dir DIR] [--corrupt-result]\n";
  return 2;
}

std::string metrics_json(const std::vector<perfbench::Report::Metric>& metrics) {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << perfbench::json_string(metrics[i].name)
       << ": {\"value\": " << perfbench::json_number(metrics[i].value)
       << ", \"unit\": " << perfbench::json_string(metrics[i].unit) << '}';
  }
  return os.str() + '}';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      options.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = !v.empty() && *end == '\0';
    } else if (arg == "--seconds") {
      const std::string v = value();
      char* end = nullptr;
      options.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(options.seconds > 0)) return usage("bad --seconds");
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      options.trace = v == "1";
      have_trace = true;
    } else if (arg == "--out-dir") {
      options.out_dir = value();
    } else if (arg == "--corrupt-result") {
      options.corrupt = true;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_trace) return usage("--seed and --trace are required");

  perfbench::Report report;
  try {
    if (options.workload == "cluster-private") {
      perfbench::run_cluster_workload(options, report);
    } else if (!perfbench::run_sim_workload(options, report)) {
      return usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " aborted: " << e.what() << '\n';
    return 1;
  }

  constexpr std::size_t kShownProblems = 10;
  for (std::size_t i = 0; i < report.problems.size() && i < kShownProblems; ++i) {
    std::cerr << "perfbench: correctness gate: " << report.problems[i] << '\n';
  }
  if (report.problems.size() > kShownProblems) {
    std::cerr << "perfbench: correctness gate: ... " << report.problems.size() - kShownProblems
              << " more\n";
  }
  std::cout << "{\"provenance\": {\"build_type\": " << perfbench::json_string(PERFBENCH_BUILD_TYPE)
            << ", \"compiler\": " << perfbench::json_string(PERFBENCH_COMPILER)
            << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
            << ", \"workload\": " << perfbench::json_string(options.workload)
            << ", \"seed\": " << options.seed << ", \"seconds\": "
            << perfbench::json_number(options.seconds) << ", \"trace\": " << options.trace
            << "}, \"detail\": " << metrics_json(report.detail) << "}\n";
  std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
            << ", \"metrics\": " << metrics_json(report.metrics) << "}" << std::endl;
  return report.correct ? 0 : 1;
}
