// Serving bench: throughput and tail latency of tsteiner_serve under many
// concurrent tenants. Writes several mixed-scale serve snapshots, starts an
// in-process server on an ephemeral loopback port, then drives N sessions
// (default 100) from a pool of client threads. Each session opens its
// snapshot, issues a few what-if rounds (move Steiner points, incremental
// sign-off), one full sign-off, and closes. Every request's wall time feeds
// the latency histogram; the headline numbers are sustained req/s and
// p50/p99 latency per request type.
//
// Exactness gate: a sample of sessions is replayed through the direct
// Flow / IncrementalSignoff API and every metric is compared bit-for-bit
// against what the server returned. The process exits nonzero on any
// mismatch (or any failed request), so CI can gate the serving path on
// exactness, not just availability.
//
// Results land in BENCH_serve.json.
//
// Knobs: TSTEINER_SERVE_SESSIONS (default 100), TSTEINER_SERVE_THREADS
// (client threads, default std::thread::hardware_concurrency()),
// TSTEINER_SERVE_ROUNDS (what-if rounds per
// session, default 3), TSTEINER_SERVE_SNAPSHOTS (default 4; every 4th is
// "small" scale, the rest "tiny"), TSTEINER_SERVE_SAMPLE (bit-identity
// replay stride, default 10), TSTEINER_THREADS (server pool width).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "flow/flow.hpp"
#include "flow/incremental_signoff.hpp"
#include "serve/client.hpp"
#include "serve/ops.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "verify/case_gen.hpp"

using namespace tsteiner;

namespace {

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::atoi(v) : fallback;
}

struct SessionPlan {
  std::string snapshot;
  std::vector<std::vector<serve::WhatIfMove>> rounds;
};

struct Sample {
  std::string type;  ///< request type for the latency breakdown
  double wall_s = 0.0;
};

struct SessionOutcome {
  std::vector<std::string> wns_bits;  ///< per what-if round
  std::vector<std::string> wl_bits;
  std::string signoff_wns_bits;
  std::vector<Sample> samples;
  std::string error;
};

std::vector<std::vector<serve::WhatIfMove>> plan_rounds(const SteinerForest& forest,
                                                        std::uint64_t seed, int session,
                                                        int rounds, double dist) {
  Rng rng(Rng::mix(seed, 0xbe9c4 + static_cast<std::uint64_t>(session)));
  std::vector<int> nets;
  for (const SteinerTree& tree : forest.trees) {
    if (tree.num_steiner_nodes() > 0) nets.push_back(tree.net);
  }
  std::vector<std::vector<serve::WhatIfMove>> plan;
  if (nets.empty()) return plan;
  for (int r = 0; r < rounds; ++r) {
    std::vector<serve::WhatIfMove> moves;
    const std::size_t k = 1 + rng.index(std::min<std::size_t>(3, nets.size()));
    for (std::size_t m = 0; m < k; ++m) {
      serve::WhatIfMove move;
      move.net = nets[rng.index(nets.size())];
      move.dx = rng.uniform(-dist, dist);
      move.dy = rng.uniform(-dist, dist);
      moves.push_back(move);
    }
    plan.push_back(std::move(moves));
  }
  return plan;
}

SessionOutcome drive_session(int port, const SessionPlan& plan) {
  SessionOutcome out;
  serve::ServeClient client;
  std::string error;
  if (!client.connect_tcp(port, &error)) {
    out.error = "connect: " + error;
    return out;
  }
  auto timed = [&out](const char* type, auto fn) {
    WallTimer t;
    auto reply = fn();
    out.samples.push_back({type, t.seconds()});
    return reply;
  };
  const auto opened = timed("open", [&] { return client.open(plan.snapshot); });
  if (!opened.ok) {
    out.error = "open: " + opened.error;
    return out;
  }
  const obs::JsonValue* session = opened.body.find_string("session");
  const obs::JsonValue* fingerprint = opened.body.find_string("fingerprint");
  if (session == nullptr || fingerprint == nullptr) {
    out.error = "open response lacks session/fingerprint";
    return out;
  }
  for (const auto& moves : plan.rounds) {
    serve::Request req;
    req.type = serve::RequestType::kWhatIf;
    req.session = session->str;
    req.fingerprint = fingerprint->str;
    req.moves = moves;
    const auto reply = timed("whatif", [&] { return client.call(req); });
    if (!reply.ok) {
      out.error = "whatif: " + reply.error;
      return out;
    }
    double wns = 0.0, wl = 0.0;
    if (!serve::read_double_field(reply.body, "wns_ns", &wns) ||
        !serve::read_double_field(reply.body, "wirelength_dbu", &wl)) {
      out.error = "whatif response lacks metric fields";
      return out;
    }
    out.wns_bits.push_back(serve::double_bits_hex(wns));
    out.wl_bits.push_back(serve::double_bits_hex(wl));
  }
  serve::Request signoff;
  signoff.type = serve::RequestType::kSignoff;
  signoff.session = session->str;
  signoff.fingerprint = fingerprint->str;
  const auto reply = timed("signoff", [&] { return client.call(signoff); });
  if (!reply.ok) {
    out.error = "signoff: " + reply.error;
    return out;
  }
  double wns = 0.0;
  serve::read_double_field(reply.body, "wns_ns", &wns);
  out.signoff_wns_bits = serve::double_bits_hex(wns);
  timed("close", [&] { return client.close_session(session->str); });
  return out;
}

/// Direct-API replay of one session's plan; returns the same bit strings the
/// server-side run recorded, for the exactness gate.
SessionOutcome replay_direct(const SessionPlan& plan) {
  SessionOutcome out;
  std::string error;
  auto loaded = serve::load_session_design(plan.snapshot, FlowOptions{}, &error);
  if (loaded == nullptr) {
    out.error = "restore: " + error;
    return out;
  }
  SteinerForest cur = loaded->flow->initial_forest();
  IncrementalSignoff inc(loaded->design.get(), loaded->flow->options());
  for (const auto& moves : plan.rounds) {
    std::vector<int> dirty;
    serve::apply_whatif_moves(&cur, *loaded->design, moves, &dirty);
    const IncrementalSignoff::Result& r = inc.update(cur, dirty);
    out.wns_bits.push_back(serve::double_bits_hex(r.metrics.wns_ns));
    out.wl_bits.push_back(serve::double_bits_hex(r.metrics.wirelength_dbu));
  }
  const FlowResult golden = loaded->flow->run_signoff(cur);
  out.signoff_wns_bits = serve::double_bits_hex(golden.metrics.wns_ns);
  return out;
}

}  // namespace

int main() {
  const int sessions = std::max(1, env_int("TSTEINER_SERVE_SESSIONS", 100));
  const int threads = std::max(
      1, env_int("TSTEINER_SERVE_THREADS",
                 static_cast<int>(std::thread::hardware_concurrency())));
  const int rounds = std::max(1, env_int("TSTEINER_SERVE_ROUNDS", 3));
  const int num_snaps = std::max(1, env_int("TSTEINER_SERVE_SNAPSHOTS", 4));
  const int sample_stride = std::max(1, env_int("TSTEINER_SERVE_SAMPLE", 10));
  const std::uint64_t seed = 7;

  std::system("mkdir -p bench_serve_tmp");
  std::printf("writing %d snapshot(s) ...\n", num_snaps);
  std::vector<std::string> snaps;
  for (int s = 0; s < num_snaps; ++s) {
    // Mixed tenancy: every 4th snapshot is "small" scale, the rest "tiny".
    const std::string scale = (s % 4 == 3) ? "small" : "tiny";
    const verify::FuzzCase c = verify::make_case(Rng::mix(seed, s), scale);
    Design design = c.design;
    const Flow flow(&design);
    BenchmarkSpec spec;
    spec.name = c.params.name;
    spec.target_cells = static_cast<int>(c.num_cells());
    spec.endpoints = static_cast<int>(design.endpoint_pins().size());
    spec.seed = c.seed;
    const std::string path = "bench_serve_tmp/design_" + std::to_string(s) + ".tsdb";
    if (!serve::save_session_snapshot(spec, design, flow.calibration(),
                                      flow.initial_forest(), verify::fuzz_library(), nullptr,
                                      SteinerPredictor::shared_pretrained().get(), path)) {
      std::printf("FAILED to write %s\n", path.c_str());
      return 1;
    }
    snaps.push_back(path);
  }

  // Plans derive from the restored forest so the replay agrees on the
  // movable-net universe.
  std::vector<SessionPlan> plans;
  for (int s = 0; s < sessions; ++s) {
    SessionPlan plan;
    plan.snapshot = snaps[static_cast<std::size_t>(s) % snaps.size()];
    std::string error;
    auto loaded = serve::load_session_design(plan.snapshot, FlowOptions{}, &error);
    if (loaded == nullptr) {
      std::printf("FAILED to restore %s: %s\n", plan.snapshot.c_str(), error.c_str());
      return 1;
    }
    const double dist = static_cast<double>(loaded->design->die().width()) / 20.0;
    plan.rounds = plan_rounds(loaded->flow->initial_forest(), seed, s, rounds, dist);
    plans.push_back(std::move(plan));
  }

  serve::ServeOptions opts;
  opts.tcp_port = 0;
  serve::Server server(opts);
  std::string error;
  if (!server.start(&error)) {
    std::printf("server start FAILED: %s\n", error.c_str());
    return 1;
  }
  const int port = server.bound_tcp_port();

  std::printf("driving %d session(s) over %d client thread(s), %d what-if round(s) each\n",
              sessions, threads, rounds);
  std::vector<SessionOutcome> outcomes(plans.size());
  std::atomic<std::size_t> next{0};
  WallTimer wall;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (;;) {
        const std::size_t s = next.fetch_add(1);
        if (s >= plans.size()) return;
        outcomes[s] = drive_session(port, plans[s]);
      }
    });
  }
  for (auto& w : workers) w.join();
  const double total_s = wall.seconds();
  const auto server_stats = server.stats();
  const auto cache_stats = server.sessions().stats();
  server.stop();

  // Aggregate latency per request type and overall.
  std::map<std::string, std::vector<double>> by_type;
  std::vector<double> all;
  std::uint64_t total_requests = 0;
  int failures = 0;
  for (std::size_t s = 0; s < outcomes.size(); ++s) {
    if (!outcomes[s].error.empty()) {
      std::printf("session %zu FAILED: %s\n", s, outcomes[s].error.c_str());
      ++failures;
      continue;
    }
    for (const Sample& sample : outcomes[s].samples) {
      by_type[sample.type].push_back(sample.wall_s);
      all.push_back(sample.wall_s);
      ++total_requests;
    }
  }
  std::sort(all.begin(), all.end());
  const double req_per_s =
      total_s > 1e-12 ? static_cast<double>(total_requests) / total_s : 0.0;

  // Exactness gate on a sample of sessions.
  int checked = 0, mismatches = 0;
  for (std::size_t s = 0; s < plans.size(); s += static_cast<std::size_t>(sample_stride)) {
    if (!outcomes[s].error.empty()) continue;
    const SessionOutcome direct = replay_direct(plans[s]);
    if (!direct.error.empty()) {
      std::printf("replay %zu FAILED: %s\n", s, direct.error.c_str());
      ++failures;
      continue;
    }
    ++checked;
    if (outcomes[s].wns_bits != direct.wns_bits || outcomes[s].wl_bits != direct.wl_bits ||
        outcomes[s].signoff_wns_bits != direct.signoff_wns_bits) {
      std::printf("session %zu NOT bit-identical to direct flow\n", s);
      ++mismatches;
    }
  }

  std::printf("%llu request(s) in %.2fs: %.1f req/s | p50 %.1f ms  p99 %.1f ms\n",
              static_cast<unsigned long long>(total_requests), total_s, req_per_s,
              1e3 * percentile(all, 50.0), 1e3 * percentile(all, 99.0));
  for (auto& [type, lat] : by_type) {
    std::sort(lat.begin(), lat.end());
    std::printf("  %-8s n=%5zu  p50 %7.2f ms  p99 %7.2f ms\n", type.c_str(), lat.size(),
                1e3 * percentile(lat, 50.0), 1e3 * percentile(lat, 99.0));
  }
  std::printf("cache: %llu load(s), %llu hit(s), %llu eviction(s) | %d/%d sampled "
              "session(s) bit-identical\n",
              static_cast<unsigned long long>(cache_stats.loads),
              static_cast<unsigned long long>(cache_stats.cache_hits),
              static_cast<unsigned long long>(cache_stats.evictions), checked - mismatches,
              checked);

  FILE* f = std::fopen("BENCH_serve.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"sessions\": %d,\n  \"client_threads\": %d,\n", sessions,
                 threads);
    std::fprintf(f, "  \"whatif_rounds\": %d,\n  \"snapshots\": %d,\n", rounds, num_snaps);
    std::fprintf(f, "  \"requests\": %llu,\n  \"wall_s\": %.3f,\n  \"req_per_s\": %.2f,\n",
                 static_cast<unsigned long long>(total_requests), total_s, req_per_s);
    std::fprintf(f, "  \"p50_ms\": %.3f,\n  \"p99_ms\": %.3f,\n",
                 1e3 * percentile(all, 50.0), 1e3 * percentile(all, 99.0));
    std::fprintf(f, "  \"by_type\": {\n");
    std::size_t i = 0;
    for (auto& [type, lat] : by_type) {
      std::fprintf(f, "    \"%s\": {\"n\": %zu, \"p50_ms\": %.3f, \"p99_ms\": %.3f}%s\n",
                   type.c_str(), lat.size(), 1e3 * percentile(lat, 50.0),
                   1e3 * percentile(lat, 99.0), ++i < by_type.size() ? "," : "");
    }
    std::fprintf(f, "  },\n");
    std::fprintf(f,
                 "  \"server\": {\"connections\": %llu, \"requests\": %llu, "
                 "\"errors\": %llu, \"batches\": %llu},\n",
                 static_cast<unsigned long long>(server_stats.connections),
                 static_cast<unsigned long long>(server_stats.requests),
                 static_cast<unsigned long long>(server_stats.errors),
                 static_cast<unsigned long long>(server_stats.batches));
    std::fprintf(f,
                 "  \"cache\": {\"loads\": %llu, \"hits\": %llu, \"evictions\": %llu},\n",
                 static_cast<unsigned long long>(cache_stats.loads),
                 static_cast<unsigned long long>(cache_stats.cache_hits),
                 static_cast<unsigned long long>(cache_stats.evictions));
    std::fprintf(f, "  \"sampled_sessions\": %d,\n  \"mismatches\": %d,\n", checked,
                 mismatches);
    std::fprintf(f, "  \"failed_sessions\": %d,\n  \"bit_identical\": %s\n}\n", failures,
                 mismatches == 0 && failures == 0 ? "true" : "false");
    std::fclose(f);
    std::printf("Wrote BENCH_serve.json\n");
  }
  return mismatches == 0 && failures == 0 ? 0 : 1;
}
