// perfbench: one workload process of the repository benchmark.
//
//   perfbench --workload refine_4k|whatif_8k|serve_mixed --seed N --seconds S
//             [--trace 0|1] [--setup-only] [--tiny] [--ref-dir DIR]
//
// Runs in the current directory (perfbench/run.py gives each process a fresh
// empty one) and prints one JSON object as its last stdout line:
// {"setup_s", "peak_rss_mb", "attempted", "failed", "failures", "metrics",
//  "info"}. run.py turns that into the benchmark's result line.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "spans.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload refine_4k|whatif_8k|serve_mixed --seed N "
               "--seconds S [--trace 0|1] [--setup-only] [--tiny] [--ref-dir DIR]\n");
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + '"';
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      o.trace = std::string(argv[++i]) == "1";
    } else if (a == "--setup-only") {
      o.setup_only = true;
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--ref-dir" && has_value) {
      o.ref_dir = argv[++i];
    } else {
      usage();
      return 2;
    }
  }

  perfbench::Outcome out;
  try {
    if (o.workload == "refine_4k") {
      out = perfbench::run_refine_4k(o);
    } else if (o.workload == "whatif_8k") {
      out = perfbench::run_whatif_8k(o);
    } else if (o.workload == "serve_mixed") {
      out = perfbench::run_serve_mixed(o);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  if (o.trace) perfbench::write_spans_json("perfbench_spans.json");

  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  out.info["threads"] = std::to_string(tsteiner::parallel_threads());

  std::string line = "{\"setup_s\":" + json_number(out.setup_s) +
                     ",\"peak_rss_mb\":" + json_number(static_cast<double>(ru.ru_maxrss) / 1024.0) +
                     ",\"attempted\":" + std::to_string(out.attempted) +
                     ",\"failed\":" + std::to_string(out.failed) + ",\"failures\":[";
  for (std::size_t i = 0; i < out.failures.size(); ++i) {
    line += (i ? "," : "") + json_string(out.failures[i]);
  }
  line += "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : out.metrics) {
    line += (first ? "" : ",") + json_string(name) + ":" + json_number(value);
    first = false;
  }
  line += "},\"info\":{";
  first = true;
  for (const auto& [name, value] : out.info) {
    line += (first ? "" : ",") + json_string(name) + ":" + json_string(value);
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
