#include "spans.hpp"

#include <chrono>
#include <cstdio>

namespace perfbench {
namespace {

struct Open {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t child_ns;
};

bool g_on = false;
std::vector<Open> g_stack;
std::vector<SpanRecord> g_done;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

}  // namespace

void enable_spans(bool on) { g_on = on; }

std::vector<double> span_self_ms(const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& r : g_done) {
    if (r.name == name) out.push_back(r.self_ms());
  }
  return out;
}

bool write_spans_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t origin = g_done.empty() ? 0 : g_done.front().start_ns;
  for (const SpanRecord& r : g_done) origin = r.start_ns < origin ? r.start_ns : origin;
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < g_done.size(); ++i) {
    const SpanRecord& r = g_done[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"self_ms\":%.6f,\"depth\":%d}}",
                 i == 0 ? "" : ",", r.name.c_str(),
                 static_cast<double>(r.start_ns - origin) * 1e-3,
                 static_cast<double>(r.end_ns - r.start_ns) * 1e-3, r.self_ms(), r.depth);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Span::Span(const char* name) {
  if (!g_on) return;
  live_ = true;
  g_stack.push_back({name, now_ns(), 0});
}

Span::~Span() {
  if (!live_) return;
  const std::uint64_t end = now_ns();
  const Open open = g_stack.back();
  g_stack.pop_back();
  if (!g_stack.empty()) g_stack.back().child_ns += end - open.start_ns;
  g_done.push_back({open.name, static_cast<int>(g_stack.size()), open.start_ns, end,
                    open.child_ns});
}

}  // namespace perfbench
