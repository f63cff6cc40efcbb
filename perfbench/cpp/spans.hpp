// Benchmark-side span recorder for the traced (--trace 1) run.
//
// Spans wrap calls into the tsteiner public API from the benchmark's own
// code; nothing inside the library is instrumented by this file. Spans nest
// by scope on the benchmark's main thread, so each finished span knows the
// time its direct children covered and its self time is the duration minus
// that. Disabled (the untraced run), a span costs one branch and no clock
// read.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  int depth = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t child_ns = 0;  ///< time covered by direct children

  double self_ms() const { return static_cast<double>(end_ns - start_ns - child_ns) * 1e-6; }
};

void enable_spans(bool on);

/// Self-time samples (ms) of every finished span with this name, in order.
std::vector<double> span_self_ms(const std::string& name);

/// Writes every finished span as Chrome trace-event JSON ("X" events).
bool write_spans_json(const std::string& path);

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool live_ = false;
};

}  // namespace perfbench
