// The benchmark's three workloads (see perfbench/README.md for the metric
// map). Each runs in its own process: setup, then a timed section of fixed
// work, then correctness checks outside the timed section.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;   ///< sizes the fixed amount of timed work
  bool trace = false;      ///< per-layer run: spans on, second (traced) pass
  bool setup_only = false; ///< stop after setup (extra setup_s samples)
  bool tiny = false;       ///< self-test scale
  std::string ref_dir;     ///< cross-run reference results (refine_4k)
};

struct Outcome {
  double setup_s = 0.0;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> info;

  /// Records one checked operation.
  void check(bool ok, const std::string& what);
};

Outcome run_refine_4k(const RunOptions& options);
Outcome run_whatif_8k(const RunOptions& options);
Outcome run_serve_mixed(const RunOptions& options);

}  // namespace perfbench
