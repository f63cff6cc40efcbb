#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "flow/flow.hpp"
#include "flow/incremental_signoff.hpp"
#include "gnn/graph_cache.hpp"
#include "gnn/steiner_predictor.hpp"
#include "gnn/trainer.hpp"
#include "netlist/design_generator.hpp"
#include "netlist/liberty.hpp"
#include "obs/trace.hpp"
#include "place/placer.hpp"
#include "serve/client.hpp"
#include "serve/ops.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "spans.hpp"
#include "sta/sta.hpp"
#include "tsteiner/gradient.hpp"
#include "tsteiner/random_move.hpp"
#include "tsteiner/refine.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace perfbench {

using namespace tsteiner;

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::make_default();
  return l;
}

double ms(const WallTimer& t) { return 1e3 * t.seconds(); }
double median(const std::vector<double>& v) { return v.empty() ? 0.0 : percentile(v, 50.0); }
double p99(const std::vector<double>& v) { return v.empty() ? 0.0 : percentile(v, 99.0); }
double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}
double share(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double mean(const std::vector<double>& v) { return share(sum(v), static_cast<double>(v.size())); }

/// Work units per run scale with --seconds so a run measures about that
/// long on a 4-CPU Xeon; the count itself is deterministic.
int units(double seconds, double per_second, int minimum) {
  return std::max(minimum, static_cast<int>(seconds * per_second + 0.5));
}

std::string hex(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(bits));
  return buf;
}

/// Bit pattern of every SignoffMetrics field: equal strings <=> bitwise equal.
std::string signoff_bits(const SignoffMetrics& m) {
  return hex(m.wns_ns) + ' ' + hex(m.tns_ns) + ' ' + std::to_string(m.num_vios) + ' ' +
         hex(m.wirelength_dbu) + ' ' + std::to_string(m.num_vias) + ' ' +
         std::to_string(m.num_drvs);
}

// ---- setup helpers -----------------------------------------------------------

/// Generator and placer defaults (deep DAG) apart from size and netlist
/// seed. Netlist and placement are fixed per workload, so every seed
/// measures the same circuit; the seed drives the workload's inputs instead.
std::unique_ptr<Design> placed_design(int comb_cells, std::uint64_t design_seed) {
  GeneratorParams p;
  p.name = "perfbench";
  p.num_comb_cells = comb_cells;
  p.seed = design_seed;
  auto design = std::make_unique<Design>(generate_design(lib(), p));
  Span span("place.place_design");
  place_design(*design);
  return design;
}

std::unique_ptr<Flow> make_flow(Design* design) {
  {
    // Pretrains the batched Steiner predictor on first use in the process
    // (the disk cache is disabled, so every process pays it).
    Span span("steiner.predictor_load");
    (void)SteinerPredictor::shared_pretrained();
  }
  Span span("flow.construct");
  return std::make_unique<Flow>(design, FlowOptions{});
}

/// Evaluator trained on the sign-off labels of a separate, fixed design;
/// `seed` sets the weight initialization and sample order.
std::unique_ptr<TimingGnn> train_model(int comb_cells, std::uint64_t design_seed, int epochs,
                                       std::uint64_t seed) {
  auto design = placed_design(comb_cells, design_seed);
  auto flow = make_flow(design.get());
  auto cache = build_graph_cache(*design, flow->initial_forest());
  std::vector<TrainingSample> samples;
  auto label = [&](const SteinerForest& forest) {
    TrainingSample s;
    s.design_name = "train";
    s.cache = cache;
    s.xs = forest.gather_x();
    s.ys = forest.gather_y();
    const FlowResult fr = flow->run_signoff(forest);
    s.arrival_label = fr.sta.arrival;
    s.endpoint_pins = fr.sta.endpoints;
    return s;
  };
  samples.push_back(label(flow->initial_forest()));
  const double dists[] = {16.0, 4.0, 8.0};
  for (int i = 0; i < 3; ++i) {
    samples.push_back(label(random_disturb(flow->initial_forest(), design->die(), dists[i],
                                           Rng::mix(20230, 10 + i))));
  }
  GnnConfig gnn;
  gnn.seed = Rng::mix(seed, 1);
  auto model = std::make_unique<TimingGnn>(gnn, lib().num_types());
  TrainOptions topt;
  topt.epochs = epochs;
  topt.lr = 4e-3;
  topt.seed = Rng::mix(seed, 2);
  Trainer trainer(model.get(), topt);
  Span span("gnn.train");
  trainer.fit(samples);
  return model;
}

/// Nets whose Steiner coordinates differ bitwise between `forest` and the
/// gathered coordinates (same topology) — the dirty-net set for update().
std::vector<int> moved_nets(const SteinerForest& forest, const std::vector<double>& xs,
                            const std::vector<double>& ys) {
  const std::vector<double> nx = forest.gather_x(), ny = forest.gather_y();
  std::vector<int> nets;
  for (std::size_t i = 0; i < nx.size(); ++i) {
    if (std::memcmp(&nx[i], &xs[i], sizeof(double)) != 0 ||
        std::memcmp(&ny[i], &ys[i], sizeof(double)) != 0) {
      const int net = forest.trees[static_cast<std::size_t>(forest.movable()[i].tree)].net;
      if (nets.empty() || nets.back() != net) nets.push_back(net);
    }
  }
  return nets;
}

// ---- per-layer collection ------------------------------------------------------

/// IncrementalSignoff calls, split by the path each took.
struct IncStats {
  std::vector<double> full_ms, update_ms;
  double rerouted = 0.0;
  long long reused_mazes = 0, total_mazes = 0;

  void add(const IncrementalSignoff::Result& r, double call_ms) {
    (r.incremental ? update_ms : full_ms).push_back(call_ms);
    if (r.incremental) {
      rerouted += static_cast<double>(r.num_rerouted);
      reused_mazes += r.reused_mazes;
      total_mazes += r.total_mazes;
    }
  }
  void report(std::map<std::string, double>& m) const {
    m["flow.full_ms"] = median(full_ms);
    m["flow.update_ms"] = median(update_ms);
    m["flow.update_over_full"] = share(median(update_ms), median(full_ms));
    m["flow.rerouted_per_round"] = share(rerouted, static_cast<double>(update_ms.size()));
    m["flow.maze_reuse_share"] =
        share(static_cast<double>(reused_mazes), static_cast<double>(total_mazes));
  }
};

void setup_layers(std::map<std::string, double>& m) {
  m["place.place_design_ms"] = sum(span_self_ms("place.place_design"));
  m["steiner.predictor_load_ms"] = sum(span_self_ms("steiner.predictor_load"));
  m["flow.construct_ms"] = sum(span_self_ms("flow.construct"));
  if (const std::vector<double> t = span_self_ms("gnn.train"); !t.empty()) {
    m["gnn.train_ms"] = sum(t);
  }
}

int accepted_iterations(const RefineResult& r) {
  int accepted = 0;
  for (const obs::RefineIterationRecord& rec : r.iteration_log) accepted += rec.accepted ? 1 : 0;
  return accepted;
}

void refine_layers(const RefineResult& r, std::map<std::string, double>& m) {
  m["tsteiner.grad_record_s"] = r.grad_record.wall_s;
  m["tsteiner.grad_replay_s"] = r.grad_replay.wall_s;
  m["tsteiner.replay_util"] = r.grad_replay.utilization();
  m["tsteiner.iterations"] = r.iterations;
  m["tsteiner.accept_share"] =
      share(accepted_iterations(r), static_cast<double>(r.iteration_log.size()));
}

/// Records the evaluator program for `forest` and replays it `calls` times
/// forward and `calls` times forward+backward, moving every coordinate before
/// each call so no replay is served by the unchanged-leaf skip.
void evaluator_layers(const Design& design, const SteinerForest& forest, const TimingGnn& model,
                      std::uint64_t seed, int calls, std::map<std::string, double>& m) {
  std::shared_ptr<const GraphCache> cache;
  {
    Span span("gnn.build_graph_cache");
    cache = build_graph_cache(design, forest);
  }
  std::vector<double> xs = forest.gather_x(), ys = forest.gather_y();
  const PenaltyWeights w;
  std::unique_ptr<GradientEvaluator> ev;
  {
    Span span("tsteiner.record");
    ev = std::make_unique<GradientEvaluator>(model, *cache, design, xs, ys, w);
  }
  Rng rng(Rng::mix(seed, 41));
  auto perturb = [&] {
    for (double& x : xs) x += rng.uniform(-0.5, 0.5);
    for (double& y : ys) y += rng.uniform(-0.5, 0.5);
  };
  for (int i = 0; i < calls; ++i) {
    perturb();
    Span span("tsteiner.forward_replay");
    (void)ev->evaluate(xs, ys, w);
  }
  for (int i = 0; i < calls; ++i) {
    perturb();
    Span span("tsteiner.backward_replay");
    (void)ev->gradients(xs, ys, w);
  }
  const Tape::Stats st = ev->program().stats();
  const TapeProgram::ReplayCounters& rc = ev->program().replay_counters();
  m["gnn.graph_cache_ms"] = sum(span_self_ms("gnn.build_graph_cache"));
  m["tsteiner.record_ms"] = sum(span_self_ms("tsteiner.record"));
  m["tsteiner.forward_replay_ms"] = median(span_self_ms("tsteiner.forward_replay"));
  m["tsteiner.backward_replay_ms"] = median(span_self_ms("tsteiner.backward_replay"));
  m["autodiff.tape_nodes"] = static_cast<double>(st.num_nodes);
  m["autodiff.value_bytes"] = static_cast<double>(st.value_doubles * sizeof(double));
  m["autodiff.grad_bytes"] = static_cast<double>(st.grad_doubles * sizeof(double));
  m["autodiff.ops_executed"] = static_cast<double>(rc.ops_executed);
  m["autodiff.ops_skip_share"] = share(static_cast<double>(rc.ops_skipped),
                                       static_cast<double>(rc.ops_executed + rc.ops_skipped));
}

/// Sign-off through the route / droute / sta public functions one by one
/// (the stages Flow::run_signoff chains), each under its own span; checks the
/// composed metrics against `golden`.
void signoff_layers(const Design& design, const Flow& flow, const SteinerForest& forest,
                    const SignoffMetrics& golden, Outcome& out) {
  const FlowOptions& o = flow.options();
  GlobalRouteResult gr;
  const std::uint64_t busy0 = parallel_busy_ns();
  WallTimer gr_timer;
  {
    Span span("route.global_route");
    gr = global_route(design, forest, o.router);
  }
  const double gr_s = gr_timer.seconds();
  const double gr_busy_s = gr_s + static_cast<double>(parallel_busy_ns() - busy0) * 1e-9;
  DetailedRouteResult dr;
  {
    Span span("droute.detailed_route");
    dr = detailed_route(design, forest, gr, o.droute);
  }
  StaResult sta;
  {
    Span span("sta.run_sta");
    sta = run_sta(design, forest, &gr, o.sta);
  }
  SignoffMetrics m;
  m.wns_ns = sta.wns;
  m.tns_ns = sta.tns;
  m.num_vios = sta.num_violations;
  m.wirelength_dbu = dr.wirelength_dbu;
  m.num_vias = dr.num_vias;
  m.num_drvs = dr.num_drvs;
  out.check(signoff_bits(m) == signoff_bits(golden),
            "stage-by-stage sign-off differs from Flow::run_signoff");
  out.metrics["route.global_route_ms"] = median(span_self_ms("route.global_route"));
  out.metrics["route.gr_util"] = share(gr_busy_s, gr_s);
  out.metrics["droute.detailed_route_ms"] = median(span_self_ms("droute.detailed_route"));
  out.metrics["droute.repair_work"] = static_cast<double>(dr.repair_work);
  out.metrics["sta.run_sta_ms"] = median(span_self_ms("sta.run_sta"));
}

void overhead(double untraced_s, double traced_s, std::map<std::string, double>& m) {
  m["trace.overhead_ms"] = 1e3 * (traced_s - untraced_s);
  m["trace.overhead_share"] = share(traced_s - untraced_s, untraced_s);
}

/// Op latencies (ms) of a timed section -> the latency/throughput metrics.
void latency_metrics(const std::vector<double>& op_ms, double wall_s,
                     std::map<std::string, double>& m) {
  m["latency_p50_ms"] = median(op_ms);
  m["latency_p99_ms"] = p99(op_ms);
  m["req_per_s"] = share(static_cast<double>(op_ms.size()), wall_s);
}

// ---- refine_4k -----------------------------------------------------------------

struct RefinePass {
  RefineResult refined;
  FlowResult after;
  double refine_s = 0.0;
  std::vector<double> signoff_s;  ///< the same sign-off, kSignoffRepeats times
  std::vector<double> op_ms;      ///< each refine iteration, then each sign-off
  double wall_s = 0.0;
  bool signoff_repeats_agree = true;
  std::vector<double> probe_ms;  ///< probes that took the update path with moved nets
  IncStats inc;
  std::unique_ptr<IncrementalSignoff> probe;
  std::vector<double> probed_xs, probed_ys;  ///< the last probed coordinates
};

constexpr int kSignoffRepeats = 9;

/// The timed section: one refine_steiner_points call with a fixed iteration
/// budget and a sign-off probe after every iteration, wired to
/// IncrementalSignoff::update as the serve refine op wires it; then
/// Flow::run_signoff on the result, kSignoffRepeats times.
void refine_pass(const Design& design, const Flow& flow, const SteinerForest& start,
                 const TimingGnn& model, int iterations, RefinePass& p) {
  WallTimer wall;
  p.probe = std::make_unique<IncrementalSignoff>(&design, flow.options());
  RefineOptions opts;
  opts.gcell_size = flow.options().router.gcell_size;
  opts.max_iterations = iterations;
  opts.signoff_probe_every = 1;
  opts.signoff_probe = [&](const SteinerForest& forest,
                           const std::vector<int>& dirty) -> SignoffProbeResult {
    WallTimer t;
    const IncrementalSignoff::Result* r = nullptr;
    {
      Span span("flow.probe");
      r = &p.probe->update(forest, dirty);
    }
    const double call_ms = ms(t);
    // A rejected iterate restores the kept one: no moved net, a no-op probe.
    if (!dirty.empty()) {
      p.inc.add(*r, call_ms);
      if (r->incremental) p.probe_ms.push_back(call_ms);
    }
    p.probed_xs = forest.gather_x();
    p.probed_ys = forest.gather_y();
    return {r->metrics.wns_ns, r->metrics.tns_ns, r->incremental};
  };
  {
    Span span("tsteiner.refine_steiner_points");
    WallTimer t;
    p.refined = refine_steiner_points(design, start, model, opts);
    p.refine_s = t.seconds();
  }
  for (const obs::RefineIterationRecord& rec : p.refined.iteration_log) {
    p.op_ms.push_back(1e3 * rec.wall_s);
  }
  for (int i = 0; i < kSignoffRepeats; ++i) {
    FlowResult r;
    {
      Span span("flow.run_signoff");
      WallTimer t;
      r = flow.run_signoff(p.refined.forest);
      p.signoff_s.push_back(t.seconds());
    }
    p.op_ms.push_back(1e3 * p.signoff_s.back());
    if (i == 0) p.after = std::move(r);
    p.signoff_repeats_agree =
        p.signoff_repeats_agree && signoff_bits(r.metrics) == signoff_bits(p.after.metrics);
  }
  p.wall_s = wall.seconds();
}

/// The refined result must match the first run of this (seed, size,
/// iterations) in this checkout bit for bit; the first run records it.
bool matches_reference(const std::string& dir, const std::string& key, const std::string& line) {
  if (dir.empty()) return true;
  const std::string path = dir + "/" + key + ".ref";
  std::ifstream in(path);
  std::string stored;
  if (in && std::getline(in, stored)) return stored == line;
  std::ofstream(path) << line << '\n';
  return true;
}

}  // namespace

Outcome run_refine_4k(const RunOptions& o) {
  Outcome out;
  enable_spans(o.trace);  // setup spans feed the per-layer metrics
  const int cells = o.tiny ? 300 : 4000;
  const int train_cells = o.tiny ? 150 : 2000;
  const int epochs = o.tiny ? 3 : 6;
  const int iterations = o.tiny ? 3 : units(o.seconds, 1.0, 2);

  WallTimer setup;
  auto design = placed_design(cells, GeneratorParams{}.seed);
  auto flow = make_flow(design.get());
  auto model = train_model(train_cells, GeneratorParams{}.seed, epochs, 2023);
  // The seeded input: every Steiner point of the initial forest moved by at
  // most 1 DBU (rounded), well inside one gcell.
  const SteinerForest start =
      random_disturb(flow->initial_forest(), design->die(), 1.0, Rng::mix(o.seed, 5));
  out.setup_s = setup.seconds();
  out.info["comb_cells"] = std::to_string(cells);
  out.info["iterations"] = std::to_string(iterations);
  if (o.setup_only) return out;

  enable_spans(false);
  RefinePass pass;
  refine_pass(*design, *flow, start, *model, iterations, pass);
  const std::string bits = signoff_bits(pass.after.metrics);
  if (o.trace) {
    // Untraced, traced, untraced again: the overhead is the traced pass
    // against the mean of the passes on either side of it.
    const double before_s = pass.wall_s;
    pass = RefinePass{};
    RefinePass traced;
    enable_spans(true);
    refine_pass(*design, *flow, start, *model, iterations, traced);
    enable_spans(false);
    refine_pass(*design, *flow, start, *model, iterations, pass);
    out.check(signoff_bits(traced.after.metrics) == bits &&
                  signoff_bits(pass.after.metrics) == bits,
              "refine_4k: traced and untraced passes refined different forests");
    overhead(0.5 * (before_s + pass.wall_s), traced.wall_s, out.metrics);
    pass = std::move(traced);
    enable_spans(true);  // the layer calls below
  }
  const RefinePass& p = pass;

  // Correctness, outside the timed section.
  const int accepted = accepted_iterations(p.refined);
  out.check(accepted > 0 && (p.refined.best_wns != p.refined.init_wns ||
                             p.refined.best_tns != p.refined.init_tns),
            "refine_4k: refine accepted no step and returned its input");
  const std::vector<int> dirty = moved_nets(p.refined.forest, p.probed_xs, p.probed_ys);
  const IncrementalSignoff::Result& inc = p.probe->update(p.refined.forest, dirty);
  out.check(signoff_bits(inc.metrics) == signoff_bits(p.after.metrics),
            "refine_4k: incremental sign-off of the refined forest differs from run_signoff");
  char key[96];
  std::snprintf(key, sizeof key, "refine_4k-%s-s%llu-i%d", o.tiny ? "tiny" : "full",
                static_cast<unsigned long long>(o.seed), iterations);
  out.check(p.signoff_repeats_agree, "refine_4k: repeated run_signoff calls disagree");
  out.check(matches_reference(o.ref_dir, key, bits),
            "refine_4k: refined sign-off differs from an earlier run with the same seed");
  out.info["refined_signoff_bits"] = bits;
  out.info["accepted_iterations"] = std::to_string(accepted);
  out.info["probe_samples"] = std::to_string(p.probe_ms.size());
  out.info["op_samples"] = std::to_string(p.op_ms.size());

  std::map<std::string, double>& m = out.metrics;
  if (!o.trace) {
    m["refine_s"] = p.refine_s;
    m["signoff_s"] = median(p.signoff_s);
    m["refined_wns_ns"] = -p.after.metrics.wns_ns;
    m["refined_tns_ns"] = -p.after.metrics.tns_ns;
    m["whatif_round_ms"] = median(p.probe_ms);
    m["whatif_p99_ms"] = p99(p.probe_ms);
    latency_metrics(p.op_ms, p.wall_s, m);
    return out;
  }
  setup_layers(m);
  refine_layers(p.refined, m);
  p.inc.report(m);
  m["flow.probe_ms"] = median(span_self_ms("flow.probe"));
  signoff_layers(*design, *flow, p.refined.forest, p.after.metrics, out);
  pass = RefinePass{};  // free the probe state before recording another program
  evaluator_layers(*design, start, *model, o.seed, o.tiny ? 2 : 3, m);
  return out;
}

// ---- whatif_8k -----------------------------------------------------------------

namespace {

constexpr int kGoldenEvery = 4;

struct WhatIfPass {
  std::vector<double> update_ms, golden_s, op_ms;
  std::vector<double> round_s;  ///< nudge + update, per round
  double wall_s = 0.0;
  SignoffMetrics final_metrics;
  std::vector<std::string> golden_bits;
  SteinerForest forest;
  IncStats inc;
};

/// The timed section: one IncrementalSignoff::full anchor, then `rounds`
/// seeded refine-sized nudges of `nets_per_round` nets each fed to update();
/// every kGoldenEvery-th round a golden Flow::run_signoff re-reads the whole
/// design and must equal the update result bit for bit.
void whatif_pass(const Design& design, const Flow& flow, int rounds, int nets_per_round,
                 std::uint64_t seed, WhatIfPass& p, Outcome& out) {
  p.forest = flow.initial_forest();
  std::vector<int> movable;
  for (std::size_t t = 0; t < p.forest.trees.size(); ++t) {
    if (p.forest.trees[t].num_steiner_nodes() > 0) movable.push_back(static_cast<int>(t));
  }
  const RectI die = design.die();
  Rng rng(Rng::mix(seed, 7));
  IncrementalSignoff inc(&design, flow.options());
  WallTimer wall;
  {
    WallTimer t;
    const IncrementalSignoff::Result* r = nullptr;
    {
      Span span("flow.full");
      r = &inc.full(p.forest);
    }
    p.op_ms.push_back(ms(t));
    p.inc.add(*r, p.op_ms.back());
  }
  for (int round = 0; round < rounds; ++round) {
    WallTimer stream;
    std::vector<int> picks = movable;
    rng.shuffle(picks);
    picks.resize(std::min<std::size_t>(picks.size(), static_cast<std::size_t>(nets_per_round)));
    std::vector<int> dirty;
    for (const int t : picks) {
      const double dx = static_cast<double>(rng.uniform_int(-8, 8));
      const double dy = static_cast<double>(rng.uniform_int(-8, 8));
      SteinerTree& tree = p.forest.trees[static_cast<std::size_t>(t)];
      for (SteinerNode& n : tree.nodes) {
        if (!n.is_steiner()) continue;
        n.pos.x = std::clamp(n.pos.x + dx, static_cast<double>(die.lo.x),
                             static_cast<double>(die.hi.x));
        n.pos.y = std::clamp(n.pos.y + dy, static_cast<double>(die.lo.y),
                             static_cast<double>(die.hi.y));
      }
      dirty.push_back(tree.net);
    }
    WallTimer t;
    const IncrementalSignoff::Result* r = nullptr;
    {
      Span span("flow.update");
      r = &inc.update(p.forest, dirty);
    }
    p.update_ms.push_back(ms(t));
    p.op_ms.push_back(p.update_ms.back());
    p.inc.add(*r, p.update_ms.back());
    p.round_s.push_back(stream.seconds());
    if (round % kGoldenEvery == kGoldenEvery - 1) {
      const std::string got = signoff_bits(r->metrics);
      WallTimer g;
      FlowResult golden;
      {
        Span span("flow.run_signoff");
        golden = flow.run_signoff(p.forest);
      }
      p.golden_s.push_back(g.seconds());
      p.op_ms.push_back(1e3 * p.golden_s.back());
      p.golden_bits.push_back(signoff_bits(golden.metrics));
      p.final_metrics = golden.metrics;
      out.check(p.golden_bits.back() == got,
                "whatif_8k: update differs from the golden run_signoff in round " +
                    std::to_string(round));
    }
  }
  p.wall_s = wall.seconds();
}

}  // namespace

Outcome run_whatif_8k(const RunOptions& o) {
  Outcome out;
  enable_spans(o.trace);  // setup spans feed the per-layer metrics
  const int cells = o.tiny ? 400 : 8000;
  const int rounds = o.tiny ? 4 : kGoldenEvery * units(o.seconds, 0.2, 1);
  const int nets_per_round = o.tiny ? 5 : 20;

  WallTimer setup;
  auto design = placed_design(cells, 8001);
  auto flow = make_flow(design.get());
  out.setup_s = setup.seconds();
  out.info["comb_cells"] = std::to_string(cells);
  out.info["rounds"] = std::to_string(rounds);
  if (o.setup_only) return out;

  enable_spans(false);
  WhatIfPass pass;
  whatif_pass(*design, *flow, rounds, nets_per_round, o.seed, pass, out);
  if (o.trace) {
    // Untraced, traced, untraced again: the overhead is the traced pass
    // against the mean of the passes on either side of it.
    WhatIfPass traced, after;
    enable_spans(true);
    whatif_pass(*design, *flow, rounds, nets_per_round, o.seed, traced, out);
    enable_spans(false);
    whatif_pass(*design, *flow, rounds, nets_per_round, o.seed, after, out);
    out.check(traced.golden_bits == pass.golden_bits && after.golden_bits == pass.golden_bits,
              "whatif_8k: traced and untraced passes produced different sign-off results");
    overhead(0.5 * (pass.wall_s + after.wall_s), traced.wall_s, out.metrics);
    pass = std::move(traced);
    enable_spans(true);  // the layer calls below
  }
  const WhatIfPass& p = pass;
  out.info["update_samples"] = std::to_string(p.update_ms.size());
  out.info["golden_samples"] = std::to_string(p.golden_s.size());

  std::map<std::string, double>& m = out.metrics;
  if (!o.trace) {
    m["whatif_round_ms"] = median(p.update_ms);
    m["whatif_p99_ms"] = p99(p.update_ms);
    m["signoff_s"] = median(p.golden_s);
    m["refine_s"] = median(p.round_s);
    m["refined_wns_ns"] = -p.final_metrics.wns_ns;
    m["refined_tns_ns"] = -p.final_metrics.tns_ns;
    latency_metrics(p.op_ms, p.wall_s, m);
    return out;
  }
  setup_layers(m);
  p.inc.report(m);
  signoff_layers(*design, *flow, p.forest, p.final_metrics, out);
  return out;
}

// ---- serve_mixed ---------------------------------------------------------------

namespace {

struct SessionPlan {
  std::size_t snapshot = 0;
  std::vector<std::vector<serve::WhatIfMove>> whatifs;
  int refine_iterations = 0;  ///< 0: no refine in this session
};

struct Sample {
  serve::RequestType type;
  double ms = 0.0;
};

/// What one session observed: latency samples plus, per result-bearing
/// request, the bit pattern of its result fields (compared against the
/// direct-API replay).
struct SessionLog {
  std::vector<Sample> samples;
  std::vector<std::string> results;
  long long failed = 0;
  double refined_wns = 0.0, refined_tns = 0.0;
};

std::string field_bits(const obs::JsonValue& body, const char* const* names, std::size_t n) {
  std::string s;
  for (std::size_t i = 0; i < n; ++i) {
    double v = 0.0;
    if (!serve::read_double_field(body, names[i], &v)) return "missing " + std::string(names[i]);
    s += hex(v) + ' ';
  }
  return s;
}

const char* const kSignoffFields[] = {"wns_ns", "tns_ns", "wirelength_dbu"};
const char* const kStaFields[] = {"wns_ns", "tns_ns"};
const char* const kRefineFields[] = {"best_wns_ns", "best_tns_ns"};

std::string signoff_fields_bits(const SignoffMetrics& m) {
  return hex(m.wns_ns) + ' ' + hex(m.tns_ns) + ' ' + hex(m.wirelength_dbu) + ' ';
}

/// Requests a session plan sends: open, the what-ifs, sta, signoff,
/// [refine, signoff], close.
long long plan_requests(const SessionPlan& plan) {
  return 4 + static_cast<long long>(plan.whatifs.size()) + (plan.refine_iterations > 0 ? 2 : 0);
}

void drive_session(int port, const std::string& snapshot, const SessionPlan& plan,
                   SessionLog& log) {
  serve::ServeClient client;
  if (!client.connect_tcp(port)) {
    log.failed = plan_requests(plan);
    return;
  }
  std::string session, fingerprint;
  auto call = [&](serve::Request req) {
    req.session = session;
    req.fingerprint = fingerprint;
    WallTimer t;
    serve::ServeClient::Reply reply = client.call(req);
    log.samples.push_back({req.type, ms(t)});
    if (!reply.ok) ++log.failed;
    return reply;
  };
  {
    WallTimer t;
    const serve::ServeClient::Reply opened = client.open(snapshot);
    log.samples.push_back({serve::RequestType::kOpen, ms(t)});
    const obs::JsonValue* sid = opened.ok ? opened.body.find_string("session") : nullptr;
    const obs::JsonValue* fp = opened.ok ? opened.body.find_string("fingerprint") : nullptr;
    if (sid == nullptr || fp == nullptr) {
      log.failed = plan_requests(plan);
      return;
    }
    session = sid->str;
    fingerprint = fp->str;
  }
  for (const auto& moves : plan.whatifs) {
    serve::Request req;
    req.type = serve::RequestType::kWhatIf;
    req.moves = moves;
    log.results.push_back(field_bits(call(req).body, kSignoffFields, 3));
  }
  serve::Request sta;
  sta.type = serve::RequestType::kSta;
  log.results.push_back(field_bits(call(sta).body, kStaFields, 2));
  serve::Request signoff;
  signoff.type = serve::RequestType::kSignoff;
  log.results.push_back(field_bits(call(signoff).body, kSignoffFields, 3));
  if (plan.refine_iterations > 0) {
    serve::Request refine;
    refine.type = serve::RequestType::kRefine;
    refine.iterations = plan.refine_iterations;
    refine.commit = true;
    log.results.push_back(field_bits(call(refine).body, kRefineFields, 2));
    const serve::ServeClient::Reply after = call(signoff);
    log.results.push_back(field_bits(after.body, kSignoffFields, 3));
    serve::read_double_field(after.body, "wns_ns", &log.refined_wns);
    serve::read_double_field(after.body, "tns_ns", &log.refined_tns);
  }
  WallTimer t;
  const serve::ServeClient::Reply closed = client.close_session(session);
  log.samples.push_back({serve::RequestType::kClose, ms(t)});
  if (!closed.ok) ++log.failed;
}

/// The same session through the direct API: serve::apply_whatif_moves +
/// IncrementalSignoff, run_preroute_sta, and refine_steiner_points with the
/// options the serve refine op uses.
std::vector<std::string> replay_session(const serve::LoadedDesign& loaded,
                                        const SessionPlan& plan, IncStats& stats,
                                        RefineResult* refined) {
  std::vector<std::string> results;
  SteinerForest cur = loaded.flow->initial_forest();
  auto inc = std::make_unique<IncrementalSignoff>(loaded.design.get(), loaded.flow->options());
  auto timed = [&](bool full, const std::vector<int>& dirty) {
    WallTimer t;
    const IncrementalSignoff::Result& r = full ? inc->full(cur) : inc->update(cur, dirty);
    stats.add(r, ms(t));
    return signoff_fields_bits(r.metrics);
  };
  for (const auto& moves : plan.whatifs) {
    std::vector<int> dirty;
    serve::apply_whatif_moves(&cur, *loaded.design, moves, &dirty);
    results.push_back(timed(false, dirty));
  }
  const StaResult sta = loaded.flow->run_preroute_sta(cur);
  results.push_back(hex(sta.wns) + ' ' + hex(sta.tns) + ' ');
  results.push_back(timed(true, {}));
  if (plan.refine_iterations > 0) {
    RefineOptions opts;
    opts.gcell_size = loaded.flow->options().router.gcell_size;
    opts.max_iterations = plan.refine_iterations;
    RefineResult r;
    {
      Span span("tsteiner.refine_steiner_points");
      r = refine_steiner_points(*loaded.design, cur, *loaded.model, opts);
    }
    results.push_back(hex(r.best_wns) + ' ' + hex(r.best_tns) + ' ');
    cur = r.forest;
    inc = std::make_unique<IncrementalSignoff>(loaded.design.get(), loaded.flow->options());
    results.push_back(timed(true, {}));
    if (refined != nullptr) *refined = std::move(r);
  }
  return results;
}

/// The library trace of the traced serve pass; run.py reads the serve
/// layers from it.
constexpr const char* kServeTraceFile = "serve_trace.json";

struct ServePass {
  std::vector<SessionLog> logs;
  double wall_s = 0.0;
  double batch_size_mean = 0.0, cache_hit_share = 0.0;
};

void serve_pass(const std::vector<std::string>& snapshots, const std::vector<SessionPlan>& plans,
                int clients, ServePass& p, Outcome& out) {
  serve::ServeOptions sopts;
  sopts.tcp_port = 0;
  serve::Server server(sopts);
  std::string error;
  if (!server.start(&error)) throw std::runtime_error("server start failed: " + error);
  const int port = server.bound_tcp_port();
  p.logs.assign(plans.size(), SessionLog{});
  std::atomic<std::size_t> next{0};
  WallTimer wall;
  std::vector<std::thread> workers;
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&] {
      for (std::size_t s = next.fetch_add(1); s < plans.size(); s = next.fetch_add(1)) {
        drive_session(port, snapshots[plans[s].snapshot], plans[s], p.logs[s]);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  p.wall_s = wall.seconds();
  serve::ServeClient client;
  const serve::ServeClient::Reply stats =
      client.connect_tcp(port) ? client.stats() : serve::ServeClient::Reply{};
  out.check(stats.ok, "serve_mixed: stats op failed");
  auto u64 = [&](const char* name) { return stats.ok ? stats.body.number_or(name, 0.0) : 0.0; };
  p.batch_size_mean = share(u64("requests"), u64("batches"));
  p.cache_hit_share = share(u64("cache_hits"), u64("opens"));
  client.close();
  server.stop();
}

}  // namespace

Outcome run_serve_mixed(const RunOptions& o) {
  Outcome out;
  enable_spans(o.trace);  // setup spans feed the per-layer metrics
  const int num_snapshots = o.tiny ? 2 : 4;
  const int sessions = o.tiny ? 8 : units(o.seconds, 50.0, 8);
  const int refine_iterations = o.tiny ? 2 : 4;
  // One session in refine_every refines. A refine holds up the requests
  // batched beside it, and a request queued behind two refines waits twice
  // as long. At one session in four, latency_p99_ms fell on that step: its
  // quartile spread over ten seeds reached 0.23 of the median. At one in
  // eight, five seeds gave 0.11.
  const int refine_every = o.tiny ? 2 : 8;
  // Closed-loop clients, at most one per CPU.
  const int clients = static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  const int replay_stride = 10;

  WallTimer setup;
  auto model = train_model(o.tiny ? 80 : 200, 20230, o.tiny ? 3 : 10, 2023);
  std::filesystem::create_directories("serve_snapshots");
  std::vector<std::string> snapshots;
  std::vector<std::vector<int>> movable_nets;
  std::vector<double> move_dist;
  for (int k = 0; k < num_snapshots; ++k) {
    const std::uint64_t seed = 2401 + static_cast<std::uint64_t>(k);
    auto design = placed_design(o.tiny ? 60 : 240, seed);
    auto flow = make_flow(design.get());
    BenchmarkSpec spec;
    spec.name = "perfbench_small_" + std::to_string(k);
    spec.target_cells = static_cast<int>(design->stats().num_cells);
    spec.endpoints = static_cast<int>(design->endpoint_pins().size());
    spec.seed = seed;
    const std::string path = "serve_snapshots/small_" + std::to_string(k) + ".tsdb";
    if (!serve::save_session_snapshot(spec, *design, flow->calibration(), flow->initial_forest(),
                                      lib(), model.get(),
                                      SteinerPredictor::shared_pretrained().get(), path)) {
      throw std::runtime_error("cannot write " + path);
    }
    snapshots.push_back(path);
    std::vector<int> nets;
    for (const SteinerTree& tree : flow->initial_forest().trees) {
      if (tree.num_steiner_nodes() > 0) nets.push_back(tree.net);
    }
    movable_nets.push_back(std::move(nets));
    move_dist.push_back(static_cast<double>(design->die().width()) / 20.0);
  }
  std::vector<SessionPlan> plans(static_cast<std::size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    SessionPlan& plan = plans[static_cast<std::size_t>(s)];
    plan.snapshot = static_cast<std::size_t>(s) % snapshots.size();
    Rng rng(Rng::mix(o.seed, 1000 + static_cast<std::uint64_t>(s)));
    const std::vector<int>& nets = movable_nets[plan.snapshot];
    const double dist = move_dist[plan.snapshot];
    for (int r = 0; r < 3 && !nets.empty(); ++r) {
      std::vector<serve::WhatIfMove> moves(1 + rng.index(3));
      for (serve::WhatIfMove& mv : moves) {
        mv.net = nets[rng.index(nets.size())];
        mv.dx = rng.uniform(-dist, dist);
        mv.dy = rng.uniform(-dist, dist);
      }
      plan.whatifs.push_back(std::move(moves));
    }
    // A fixed share of sessions refines, spread evenly over the snapshots.
    if ((s / num_snapshots) % refine_every == refine_every - 1) {
      plan.refine_iterations = refine_iterations;
    }
  }
  out.setup_s = setup.seconds();
  out.info["sessions"] = std::to_string(sessions);
  out.info["client_threads"] = std::to_string(clients);
  if (o.setup_only) return out;

  enable_spans(false);
  ServePass pass;
  serve_pass(snapshots, plans, clients, pass, out);
  if (o.trace) {
    // Untraced, traced (the library's serve trace), untraced again: the
    // overhead is the traced pass against the mean of the passes on either
    // side of it. Every request of the untraced passes must succeed too.
    ServePass traced, after;
    obs::enable_trace(kServeTraceFile);
    serve_pass(snapshots, plans, clients, traced, out);
    obs::disable_trace();
    serve_pass(snapshots, plans, clients, after, out);
    const auto no_failures = [](const ServePass& sp) {
      return std::all_of(sp.logs.begin(), sp.logs.end(),
                         [](const SessionLog& l) { return l.failed == 0; });
    };
    out.check(no_failures(pass) && no_failures(after),
              "serve_mixed: a request of an untraced pass failed");
    overhead(0.5 * (pass.wall_s + after.wall_s), traced.wall_s, out.metrics);
    pass = std::move(traced);
    enable_spans(true);  // the layer calls below
  }
  const ServePass& p = pass;

  // Correctness: every request succeeded, and every replay_stride-th session
  // and the first refining one replay bit for bit through the direct API.
  std::vector<std::shared_ptr<serve::LoadedDesign>> loaded;
  for (const std::string& path : snapshots) {
    std::string error;
    loaded.push_back(serve::load_session_design(path, FlowOptions{}, &error));
    if (loaded.back() == nullptr) throw std::runtime_error("cannot restore " + path + ": " + error);
  }
  IncStats replay_inc;
  RefineResult first_refine;
  bool have_refine = false;
  for (std::size_t s = 0; s < plans.size(); ++s) {
    const SessionLog& log = p.logs[s];
    out.attempted += plan_requests(plans[s]);
    long long failed = log.failed;
    const bool want = !have_refine && plans[s].refine_iterations > 0;
    if ((s % replay_stride == 0 || want) && failed == 0) {
      const std::vector<std::string> direct =
          replay_session(*loaded[plans[s].snapshot], plans[s], replay_inc,
                         want ? &first_refine : nullptr);
      have_refine = have_refine || want;
      for (std::size_t i = 0; i < direct.size(); ++i) {
        if (i >= log.results.size() || log.results[i] != direct[i]) ++failed;
      }
      if (failed != 0) {
        out.failures.push_back("serve_mixed: session " + std::to_string(s) +
                               " differs from its direct-API replay");
      }
    } else if (failed != 0) {
      out.failures.push_back("serve_mixed: session " + std::to_string(s) + " had failed requests");
    }
    out.failed += failed;
  }

  std::map<std::string, double>& m = out.metrics;
  if (!o.trace) {
    std::vector<double> all, whatif, signoff, refine, wns, tns;
    for (std::size_t s = 0; s < plans.size(); ++s) {
      for (const Sample& smp : p.logs[s].samples) {
        all.push_back(smp.ms);
        if (smp.type == serve::RequestType::kWhatIf) whatif.push_back(smp.ms);
        if (smp.type == serve::RequestType::kSignoff) signoff.push_back(1e-3 * smp.ms);
        if (smp.type == serve::RequestType::kRefine) refine.push_back(1e-3 * smp.ms);
      }
      if (plans[s].refine_iterations > 0) {
        wns.push_back(-p.logs[s].refined_wns);
        tns.push_back(-p.logs[s].refined_tns);
      }
    }
    out.info["requests"] = std::to_string(all.size());
    out.info["whatif_samples"] = std::to_string(whatif.size());
    latency_metrics(all, p.wall_s, m);
    m["whatif_round_ms"] = median(whatif);
    m["whatif_p99_ms"] = p99(whatif);
    m["signoff_s"] = median(signoff);
    m["refine_s"] = median(refine);
    m["refined_wns_ns"] = mean(wns);
    m["refined_tns_ns"] = mean(tns);
    return out;
  }
  setup_layers(m);
  if (have_refine) refine_layers(first_refine, m);
  replay_inc.report(m);
  m["serve.batch_size_mean"] = p.batch_size_mean;
  m["serve.cache_hit_share"] = p.cache_hit_share;
  const serve::LoadedDesign& first = *loaded.front();
  const FlowResult golden = first.flow->run_signoff(first.flow->initial_forest());
  signoff_layers(*first.design, *first.flow, first.flow->initial_forest(), golden.metrics, out);
  evaluator_layers(*first.design, first.flow->initial_forest(), *first.model, o.seed, 3, m);
  return out;
}

}  // namespace perfbench
