// The fused propagation ops (arrival_propagate, tree_scan, tree_reduce) must
// reproduce the per-level composition they replaced bit for bit: arrival
// values, coordinate gradients from GradientEvaluator replay, and the model
// parameter gradients of a trainer-style one-shot backward — at several
// design sizes and pool widths. The reference composition lives in
// tests/reference_model.hpp.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "flow/flow.hpp"
#include "netlist/design_generator.hpp"
#include "place/placer.hpp"
#include "reference_model.hpp"
#include "steiner/rsmt.hpp"
#include "tsteiner/gradient.hpp"
#include "tsteiner/penalty.hpp"
#include "util/parallel.hpp"

namespace tsteiner {
namespace {

const CellLibrary& lib() {
  static const CellLibrary l = CellLibrary::make_default();
  return l;
}

struct Case {
  Design design;
  SteinerForest forest;
  std::shared_ptr<const GraphCache> cache;
};

Case make_case(int comb_cells, std::uint64_t seed) {
  GeneratorParams p;
  p.num_comb_cells = comb_cells;
  p.num_registers = comb_cells / 8;
  p.num_primary_inputs = 8;
  p.num_primary_outputs = 8;
  p.seed = seed;
  Case c{generate_design(lib(), p), {}, nullptr};
  place_design(c.design);
  c.forest = build_forest(c.design);
  const StaResult sta = run_sta(c.design, c.forest, nullptr);
  c.design.set_clock_period(0.6 * sta.max_arrival);  // violating endpoints
  c.cache = build_graph_cache(c.design, c.forest);
  return c;
}

::testing::AssertionResult same_bits(const std::string& what, const Tensor& a,
                                     const Tensor& b) {
  if (!a.same_shape(b)) return ::testing::AssertionFailure() << what << ": shape differs";
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a.data()[i], &b.data()[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << what << " element " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

Tensor column(const std::vector<double>& v) { return Tensor::column(v); }

/// Everything compared between the fused model and the reference.
struct Observed {
  Tensor arrival;
  Tensor grad_x, grad_y;            ///< d penalty / d coordinates
  std::vector<Tensor> param_grads;  ///< d trainer loss / d parameters
};

using ForwardFn = Value (*)(const TimingGnn&, Tape&, const GraphCache&,
                            const TimingGnn::Bound&, Value, Value);

Value fused_forward(const TimingGnn& model, Tape& tape, const GraphCache& g,
                    const TimingGnn::Bound& bound, Value xs, Value ys) {
  return model.forward(tape, g, bound, xs, ys);
}

/// One-shot tape: arrival, penalty coordinate gradients, and the parameter
/// gradients of the trainer's loss (all-pin MSE plus weighted endpoint MSE).
Observed one_shot(ForwardFn forward, const TimingGnn& model, const Case& c,
                  const std::vector<double>& xs, const std::vector<double>& ys,
                  bool with_coordinate_grads) {
  Tape tape;
  const TimingGnn::Bound bound = model.bind(tape);
  const Value vx = tape.leaf(column(xs), /*requires_grad=*/true);
  const Value vy = tape.leaf(column(ys), /*requires_grad=*/true);
  const Value arrival = forward(model, tape, *c.cache, bound, vx, vy);
  Observed o;
  o.arrival = tape.value(arrival);

  if (with_coordinate_grads) {
    const PenaltyTerms terms =
        build_timing_penalty(tape, *c.cache, c.design, arrival, PenaltyWeights{});
    tape.backward(terms.penalty);
    o.grad_x = tape.grad(vx);
    o.grad_y = tape.grad(vy);
  }

  Tensor target = o.arrival;
  for (std::size_t i = 0; i < target.size(); ++i) target[i] = 1.1 * target[i] + 0.01;
  const std::vector<int> endpoints = c.design.endpoint_pins();
  Tensor ep_target(endpoints.size(), 1);
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    ep_target[i] = o.arrival[static_cast<std::size_t>(endpoints[i])] - 0.05;
  }
  const Value loss =
      tape.add(tape.mse(arrival, target),
               tape.scale(tape.mse(tape.gather_rows(arrival, endpoints), ep_target), 2.0));
  tape.backward(loss);
  model.accumulate_param_grads(tape, bound, o.param_grads);
  return o;
}

class FusedReference : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  void TearDown() override { set_parallel_threads(0); }
};

TEST_P(FusedReference, BitIdenticalToPerLevelComposition) {
  const auto [cells, width] = GetParam();
  set_parallel_threads(static_cast<std::size_t>(width));
  const Case c = make_case(cells, 1000 + static_cast<std::uint64_t>(cells));
  GnnConfig cfg;
  const TimingGnn model(cfg, lib().num_types());

  const std::vector<double> xs0 = c.forest.gather_x();
  const std::vector<double> ys0 = c.forest.gather_y();
  ASSERT_GT(xs0.size(), 0u);
  std::vector<double> xs = xs0, ys = ys0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] += static_cast<double>(i % 7) - 3.0;
    ys[i] += static_cast<double>((i * 3) % 5) - 2.0;
  }

  // Fused coordinate gradients come from a retained program recorded at the
  // unmoved coordinates and replayed at the moved ones.
  GradientEvaluator evaluator(model, *c.cache, c.design, xs0, ys0, PenaltyWeights{});
  const GradientResult replayed = evaluator.gradients(xs, ys, PenaltyWeights{});
  const Observed fused = one_shot(fused_forward, model, c, xs, ys, false);
  const Observed ref = one_shot(testref::reference_forward, model, c, xs, ys, true);

  EXPECT_TRUE(same_bits("arrival", fused.arrival, ref.arrival));
  EXPECT_TRUE(same_bits("grad_x", column(replayed.grad_x), ref.grad_x));
  EXPECT_TRUE(same_bits("grad_y", column(replayed.grad_y), ref.grad_y));
  ASSERT_EQ(fused.param_grads.size(), ref.param_grads.size());
  for (std::size_t p = 0; p < ref.param_grads.size(); ++p) {
    EXPECT_TRUE(same_bits("param " + std::to_string(p), fused.param_grads[p],
                          ref.param_grads[p]));
  }
}

INSTANTIATE_TEST_SUITE_P(SizesAndWidths, FusedReference,
                         ::testing::Combine(::testing::Values(200, 1000, 4000),
                                            ::testing::Values(1, 4)),
                         [](const auto& info) {
                           return std::to_string(std::get<0>(info.param)) + "cells_w" +
                                  std::to_string(std::get<1>(info.param));
                         });

TEST(FusedReferenceFreeFormHeads, BitIdenticalToPerLevelComposition) {
  // The softplus heads (physics_anchor off) feed the fused op too.
  const Case c = make_case(200, 7);
  GnnConfig cfg;
  cfg.physics_anchor = false;
  const TimingGnn model(cfg, lib().num_types());
  const std::vector<double> xs = c.forest.gather_x();
  const std::vector<double> ys = c.forest.gather_y();
  const Observed fused = one_shot(fused_forward, model, c, xs, ys, true);
  const Observed ref = one_shot(testref::reference_forward, model, c, xs, ys, true);
  EXPECT_TRUE(same_bits("arrival", fused.arrival, ref.arrival));
  EXPECT_TRUE(same_bits("grad_x", fused.grad_x, ref.grad_x));
  EXPECT_TRUE(same_bits("grad_y", fused.grad_y, ref.grad_y));
  for (std::size_t p = 0; p < ref.param_grads.size(); ++p) {
    EXPECT_TRUE(same_bits("param " + std::to_string(p), fused.param_grads[p],
                          ref.param_grads[p]));
  }
}

}  // namespace
}  // namespace tsteiner
