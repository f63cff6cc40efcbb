#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>

#include "autodiff/tape.hpp"

namespace tsteiner {
namespace {

// Gradient check: compares the tape gradient of a scalar function against a
// central finite difference, elementwise.
void check_gradient(const std::function<Value(Tape&, Value)>& graph, const Tensor& x0,
                    double tol = 1e-6) {
  Tape tape;
  const Value x = tape.leaf(x0, /*requires_grad=*/true);
  const Value root = graph(tape, x);
  ASSERT_EQ(tape.value(root).size(), 1u);
  tape.backward(root);
  const Tensor& analytic = tape.grad(x);
  ASSERT_EQ(analytic.size(), x0.size());

  auto eval = [&graph](const Tensor& xv) {
    Tape t2;
    const Value xx = t2.leaf(xv, true);
    return t2.value(graph(t2, xx))[0];
  };
  for (std::size_t i = 0; i < x0.size(); ++i) {
    const double numeric = numeric_gradient(eval, x0, i);
    EXPECT_NEAR(analytic[i], numeric, tol) << "element " << i;
  }
}

Tensor make_input() {
  Rng rng(5);
  return Tensor::randn(rng, 4, 3, 1.0);
}

TEST(Tape, LeafValueRoundTrip) {
  Tape tape;
  Tensor t(2, 2);
  t.at(0, 0) = 1.0;
  t.at(1, 1) = -2.0;
  const Value v = tape.leaf(t);
  EXPECT_DOUBLE_EQ(tape.value(v).at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(tape.value(v).at(1, 1), -2.0);
}

TEST(TapeGrad, SumAll) {
  check_gradient([](Tape& t, Value x) { return t.sum_all(x); }, make_input());
}

TEST(TapeGrad, MeanAll) {
  check_gradient([](Tape& t, Value x) { return t.mean_all(x); }, make_input());
}

TEST(TapeGrad, ScaleAndAddScalar) {
  check_gradient(
      [](Tape& t, Value x) { return t.sum_all(t.add_scalar(t.scale(x, 2.5), -1.0)); },
      make_input());
}

TEST(TapeGrad, AddSubMulChain) {
  check_gradient(
      [](Tape& t, Value x) {
        const Value y = t.mul(x, x);       // x^2
        const Value z = t.sub(y, x);       // x^2 - x
        const Value w = t.add(z, y);       // 2x^2 - x
        return t.sum_all(w);
      },
      make_input());
}

TEST(TapeGrad, RowBroadcastAdd) {
  Rng rng(9);
  const Tensor bias = Tensor::randn(rng, 1, 3, 1.0);
  check_gradient(
      [bias](Tape& t, Value x) {
        const Value b = t.leaf(bias);
        return t.sum_all(t.mul(t.add(x, b), t.add(x, b)));
      },
      make_input());
}

TEST(TapeGrad, MatmulBothSides) {
  Rng rng(11);
  const Tensor w = Tensor::randn(rng, 3, 2, 1.0);
  // gradient w.r.t. left operand
  check_gradient(
      [w](Tape& t, Value x) { return t.sum_all(t.matmul(x, t.leaf(w))); }, make_input());
  // gradient w.r.t. right operand (x plays the role of W)
  const Tensor a = Tensor::randn(rng, 2, 4, 1.0);
  check_gradient(
      [a](Tape& t, Value x) { return t.sum_all(t.matmul(t.leaf(a), x)); }, make_input());
}

TEST(TapeGrad, Relu) {
  check_gradient([](Tape& t, Value x) { return t.sum_all(t.mul(t.relu(x), t.relu(x))); },
                 make_input(), 1e-5);
}

TEST(TapeGrad, Tanh) {
  check_gradient([](Tape& t, Value x) { return t.sum_all(t.tanh_op(x)); }, make_input());
}

TEST(TapeGrad, Sigmoid) {
  check_gradient([](Tape& t, Value x) { return t.sum_all(t.sigmoid(x)); }, make_input());
}

TEST(TapeGrad, Softplus) {
  check_gradient([](Tape& t, Value x) { return t.sum_all(t.softplus(x)); }, make_input());
}

TEST(TapeGrad, AbsAwayFromZero) {
  Tensor x0(3, 1);
  x0[0] = 1.5;
  x0[1] = -2.5;
  x0[2] = 0.75;
  check_gradient([](Tape& t, Value x) { return t.sum_all(t.mul(t.abs_op(x), t.abs_op(x))); },
                 x0);
}

TEST(TapeGrad, ConcatCols) {
  Rng rng(13);
  const Tensor other = Tensor::randn(rng, 4, 2, 1.0);
  check_gradient(
      [other](Tape& t, Value x) {
        const Value c = t.concat_cols({x, t.leaf(other)});
        return t.sum_all(t.mul(c, c));
      },
      make_input());
}

TEST(TapeGrad, GatherRows) {
  check_gradient(
      [](Tape& t, Value x) {
        const Value g = t.gather_rows(x, {0, 2, 2, 1});  // repeated row
        return t.sum_all(t.mul(g, g));
      },
      make_input());
}

TEST(TapeGrad, ScatterAddRows) {
  check_gradient(
      [](Tape& t, Value x) {
        const Value s = t.scatter_add_rows(x, {1, 0, 1, 2}, 3);  // collisions
        return t.sum_all(t.mul(s, s));
      },
      make_input());
}

TEST(TapeGrad, SegmentSum) {
  check_gradient(
      [](Tape& t, Value x) {
        const Value s = t.segment_sum(x, {0, 0, 1, 1}, 2);
        return t.sum_all(t.mul(s, s));
      },
      make_input());
}

TEST(TapeGrad, SegmentMax) {
  // distinct values so the argmax is stable under the finite-difference eps
  Tensor x0(4, 2);
  double v = 0.1;
  for (std::size_t i = 0; i < x0.size(); ++i) x0[i] = (v += 0.37);
  check_gradient(
      [](Tape& t, Value x) {
        const Value s = t.segment_max(x, {0, 1, 0, 1}, 2);
        return t.sum_all(t.mul(s, s));
      },
      x0);
}

TEST(Tape, SegmentMaxEmptySegmentGetsFill) {
  Tape tape;
  Tensor x(2, 1);
  x[0] = 5.0;
  x[1] = 3.0;
  const Value v = tape.leaf(x, true);
  const Value s = tape.segment_max(v, {0, 0}, 3, -7.0);
  EXPECT_DOUBLE_EQ(tape.value(s).at(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(tape.value(s).at(1, 0), -7.0);
  EXPECT_DOUBLE_EQ(tape.value(s).at(2, 0), -7.0);
}

// Fused propagation ops. A small two-level tree (node 0 the root) and a
// three-stage DAG: a source stage, a cell stage whose segment max-reduces two
// arcs, and a net stage fanning out.
std::shared_ptr<const TreeIndex> small_tree() {
  auto t = std::make_shared<TreeIndex>();
  t->num_nodes = 6;
  t->pa = {0, 0, 1, 1, 2};
  t->ch = {1, 2, 3, 4, 5};
  t->level_off = {0, 2, 5};
  return t;
}

std::shared_ptr<const ArrivalIndex> small_dag() {
  auto a = std::make_shared<ArrivalIndex>();
  a->num_pins = 8;  // pin 7 is never written
  a->stage_arc_off = {0, 2, 5, 8};
  a->stage_seg_off = {0, 2, 4, 7};
  a->arc_src = {-1, -1, 0, 1, 1, 2, 2, 3};
  a->arc_seg = {0, 1, 2, 2, 3, 4, 5, 6};
  a->seg_dst = {0, 1, 2, 3, 4, 5, 6};
  return a;
}

/// The per-stage delay columns of small_dag() as row slices of one leaf.
Value small_dag_arrival(Tape& t, Value x) {
  return t.arrival_propagate({t.gather_rows(x, {0, 1}), t.gather_rows(x, {2, 3, 4}),
                              t.gather_rows(x, {5, 6, 7})},
                             small_dag());
}

TEST(TapeGrad, TreeScan) {
  Rng rng(21);
  check_gradient(
      [](Tape& t, Value x) {
        const Value out = t.tree_scan(x, small_tree());
        return t.sum_all(t.mul(out, out));
      },
      Tensor::randn(rng, 5, 1, 1.0));
}

TEST(TapeGrad, TreeReduce) {
  Rng rng(22);
  check_gradient(
      [](Tape& t, Value x) {
        const Value out = t.tree_reduce(x, small_tree());
        return t.sum_all(t.mul(out, out));
      },
      Tensor::randn(rng, 6, 1, 1.0));
}

TEST(TapeGrad, ArrivalPropagate) {
  Rng rng(23);
  check_gradient(
      [](Tape& t, Value x) {
        const Value out = small_dag_arrival(t, x);
        return t.sum_all(t.mul(out, out));
      },
      Tensor::randn(rng, 8, 1, 1.0));
}

TEST(Tape, FusedOpsForwardValues) {
  Tape t;
  const Value w = t.leaf(Tensor::column({1.0, 2.0, 3.0, 4.0, 5.0}));
  const Tensor& scan = t.value(t.tree_scan(w, small_tree()));
  EXPECT_EQ(scan.data(), (std::vector<double>{0.0, 1.0, 2.0, 4.0, 5.0, 7.0}));

  const Value x = t.leaf(Tensor::column({1.0, 2.0, 3.0, 4.0, 5.0, 6.0}));
  const Tensor& sub = t.value(t.tree_reduce(x, small_tree()));
  EXPECT_EQ(sub.data(), (std::vector<double>{21.0, 11.0, 9.0, 4.0, 5.0, 6.0}));

  const Value d = t.leaf(Tensor::column({1.0, 2.0, 0.5, 0.25, 3.0, 1.0, 2.0, 0.5}));
  const Tensor& arr = t.value(small_dag_arrival(t, d));
  // pin 2 = max(1 + 0.5, 2 + 0.25); pin 3 = 2 + 3; sinks add their net delay.
  EXPECT_EQ(arr.data(), (std::vector<double>{1.0, 2.0, 2.25, 5.0, 3.25, 4.25, 5.5, 0.0}));
}

TEST(Tape, FusedOpsRejectBrokenIndices) {
  Tape t;
  const Value w = t.leaf(Tensor::column({1.0, 2.0}));
  auto tree = std::make_shared<TreeIndex>();
  tree->num_nodes = 3;
  tree->pa = {0, 1};
  tree->ch = {1, 2};
  tree->level_off = {0, 2};  // node 1 is written and read at the same level
  EXPECT_THROW(t.tree_scan(w, tree), std::runtime_error);
  tree->ch = {1, 1};
  tree->level_off = {0, 1, 2};  // node 1 is the child of two edges
  EXPECT_THROW(t.tree_scan(w, tree), std::runtime_error);
  tree->ch = {1, 2};
  tree->level_off = {0, 3, 2};  // level 0 runs past the last edge
  EXPECT_THROW(t.tree_scan(w, tree), std::runtime_error);

  auto dag = std::make_shared<ArrivalIndex>(*small_dag());
  const Value d2 = t.leaf(Tensor::column({1.0, 2.0}));
  const Value d3 = t.leaf(Tensor::column({1.0, 2.0, 3.0}));
  EXPECT_THROW(t.arrival_propagate({d2, d3}, dag), std::runtime_error);  // stage count
  EXPECT_THROW(t.arrival_propagate({d2, d2, d3}, dag), std::runtime_error);  // arc count
  dag->seg_dst[6] = 4;  // pin 4 written twice
  EXPECT_THROW(t.arrival_propagate({d2, d3, d3}, dag), std::runtime_error);
  dag->seg_dst[6] = 3;  // the net stage reads pin 3, which it now writes
  dag->seg_dst[3] = 6;
  EXPECT_THROW(t.arrival_propagate({d2, d3, d3}, dag), std::runtime_error);
}

TEST(TapeGrad, LogSumExp) {
  Tensor x0(5, 1);
  x0[0] = -1.0;
  x0[1] = 0.5;
  x0[2] = 2.0;
  x0[3] = -3.0;
  x0[4] = 1.0;
  check_gradient([](Tape& t, Value x) { return t.log_sum_exp(x, 0.7); }, x0);
}

TEST(Tape, LogSumExpApproachesMax) {
  // gamma -> 0 makes LSE converge to the hard maximum
  Tape tape;
  Tensor x(3, 1);
  x[0] = 1.0;
  x[1] = 4.0;
  x[2] = -2.0;
  const Value v = tape.leaf(x);
  EXPECT_NEAR(tape.value(tape.log_sum_exp(v, 1e-3))[0], 4.0, 1e-2);
  // and is an upper bound for any gamma
  EXPECT_GE(tape.value(tape.log_sum_exp(v, 10.0))[0], 4.0);
}

TEST(Tape, LogSumExpNumericallyStableForLargeInputs) {
  Tape tape;
  Tensor x(2, 1);
  x[0] = 1e6;
  x[1] = 1e6 - 1.0;
  const Value v = tape.leaf(x);
  const double out = tape.value(tape.log_sum_exp(v, 1.0))[0];
  EXPECT_TRUE(std::isfinite(out));
  EXPECT_NEAR(out, 1e6 + std::log(1.0 + std::exp(-1.0)), 1e-6);
}

TEST(TapeGrad, SoftMin0) {
  Tensor x0(4, 1);
  x0[0] = -2.0;
  x0[1] = -0.1;
  x0[2] = 0.1;
  x0[3] = 3.0;
  check_gradient([](Tape& t, Value x) { return t.sum_all(t.soft_min0(x, 0.5)); }, x0);
}

TEST(Tape, SoftMin0Limits) {
  Tape tape;
  Tensor x(2, 1);
  x[0] = -100.0;  // deep violation: ~identity
  x[1] = 100.0;   // large positive slack: ~0
  const Value v = tape.leaf(x);
  const Tensor& out = tape.value(tape.soft_min0(v, 1.0));
  EXPECT_NEAR(out[0], -100.0, 1e-6);
  EXPECT_NEAR(out[1], 0.0, 1e-6);
}

TEST(TapeGrad, SmoothAbs) {
  Tensor x0(4, 1);
  x0[0] = -6.0;
  x0[1] = -0.5;
  x0[2] = 0.0;
  x0[3] = 7.0;
  check_gradient([](Tape& t, Value x) { return t.sum_all(t.smooth_abs(x, 2.0)); }, x0);
}

TEST(Tape, SmoothAbsProperties) {
  Tape tape;
  Tensor x(3, 1);
  x[0] = 0.0;
  x[1] = 100.0;
  x[2] = -100.0;
  const Value v = tape.leaf(x, true);
  const Tensor& out = tape.value(tape.smooth_abs(v, 4.0));
  EXPECT_DOUBLE_EQ(out[0], 0.0);                 // exact zero at origin
  EXPECT_NEAR(out[1], 100.0 - 4.0 + 0.08, 0.1);  // |x| - delta in the tails
  EXPECT_DOUBLE_EQ(out[1], out[2]);              // even function
  // gradient vanishes at the origin (flat basin, unlike abs)
  Tape t2;
  Tensor zero(1, 1, 0.0);
  const Value z = t2.leaf(zero, true);
  const Value root = t2.sum_all(t2.smooth_abs(z, 4.0));
  t2.backward(root);
  EXPECT_DOUBLE_EQ(t2.grad(z)[0], 0.0);
}

TEST(Tape, SmoothAbsZeroDeltaFallsBackToAbs) {
  Tape tape;
  Tensor x(2, 1);
  x[0] = -3.0;
  x[1] = 2.0;
  const Value v = tape.leaf(x);
  const Tensor& out = tape.value(tape.smooth_abs(v, 0.0));
  EXPECT_DOUBLE_EQ(out[0], 3.0);
  EXPECT_DOUBLE_EQ(out[1], 2.0);
}

TEST(TapeGrad, Mse) {
  Tensor target(4, 3);
  for (std::size_t i = 0; i < target.size(); ++i) target[i] = 0.1 * static_cast<double>(i);
  check_gradient([target](Tape& t, Value x) { return t.mse(x, target); }, make_input());
}

TEST(Tape, BackwardOnlyReachesUsedLeaves) {
  Tape tape;
  const Value a = tape.leaf(Tensor(2, 1, 1.0), true);
  const Value b = tape.leaf(Tensor(2, 1, 2.0), true);
  const Value root = tape.sum_all(a);
  tape.backward(root);
  EXPECT_DOUBLE_EQ(tape.grad(a)[0], 1.0);
  // b untouched: zero grad
  const Tensor& gb = tape.grad(b);
  for (std::size_t i = 0; i < gb.size(); ++i) EXPECT_DOUBLE_EQ(gb[i], 0.0);
}

TEST(Tape, BackwardThrowsOnNonScalarRoot) {
  Tape tape;
  const Value a = tape.leaf(Tensor(2, 2, 1.0), true);
  EXPECT_THROW(tape.backward(a), std::runtime_error);
}

TEST(Tape, ShapeMismatchThrows) {
  Tape tape;
  const Value a = tape.leaf(Tensor(2, 2, 1.0));
  const Value b = tape.leaf(Tensor(3, 2, 1.0));
  EXPECT_THROW(tape.sub(a, b), std::runtime_error);
  EXPECT_THROW(tape.mul(a, b), std::runtime_error);
  EXPECT_THROW(tape.matmul(a, b), std::runtime_error);
}

TEST(TapeGrad, ComposedMlpBlock) {
  // A realistic block: relu(x W1 + b1) W2 summed — the delay-head pattern.
  Rng rng(21);
  const Tensor w1 = Tensor::randn(rng, 3, 5, 0.7);
  const Tensor b1 = Tensor::randn(rng, 1, 5, 0.3);
  const Tensor w2 = Tensor::randn(rng, 5, 1, 0.7);
  check_gradient(
      [&](Tape& t, Value x) {
        const Value hidden = t.relu(t.add(t.matmul(x, t.leaf(w1)), t.leaf(b1)));
        return t.sum_all(t.softplus(t.matmul(hidden, t.leaf(w2))));
      },
      make_input(), 1e-5);
}

}  // namespace
}  // namespace tsteiner
