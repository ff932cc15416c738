// google-benchmark microbenchmarks for the NN substrate: per-batch training
// and inference cost of the paper's CNN at several filter counts, and the
// individual layer costs.
//
// The paper reports CNN training as only 3-5% of total wall-clock. That
// holds only where labeling dominates. In perfbench's pipeline_cnn (alu:2,
// 64 filters, 4-core host, traced run, seed 1) training plus pool
// prediction took 7.6 s of 8.3 s (91%) with the original loop orders, and
// 2.7 s of 3.5 s (78%) with the order-preserving kernels: alu:2 labels 300
// flows in about 0.7 s. The second conv is most of both, hence the
// BM_Conv2DForwardFF and BM_Conv2DBackward cases at its geometry.

#include <benchmark/benchmark.h>

#include "nn/conv2d.hpp"
#include "nn/locally_connected.hpp"
#include "nn/model.hpp"
#include "nn/pooling.hpp"

namespace {

using namespace flowgen::nn;
using flowgen::util::Rng;

Sequential paper_cnn(std::size_t filters, Rng& rng) {
  Sequential model;
  model.emplace<Conv2D>(1, filters, 6, 12, rng);
  model.emplace<Activation>(ActivationKind::kSELU);
  model.emplace<MaxPool2D>(2, 2, 1);
  model.emplace<Conv2D>(filters, filters, 6, 12, rng);
  model.emplace<Activation>(ActivationKind::kSELU);
  model.emplace<MaxPool2D>(2, 2, 1);
  model.emplace<LocallyConnected2D>(10, 10, filters, 16, 3, 3, rng);
  model.emplace<Activation>(ActivationKind::kSELU);
  model.emplace<Flatten>();
  model.emplace<Dense>(8 * 8 * 16, 48, rng);
  model.emplace<Activation>(ActivationKind::kSELU);
  model.emplace<Dropout>(0.4, rng);
  model.emplace<Dense>(48, 7, rng);
  return model;
}

Tensor random_batch(std::size_t n, Rng& rng) {
  Tensor x({n, 12, 12, 1});
  // One-hot-like sparse batch: two 1s per row block.
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.chance(0.08);
  return x;
}

void BM_CnnTrainBatch(benchmark::State& state) {
  Rng rng(1);
  Sequential model = paper_cnn(static_cast<std::size_t>(state.range(0)), rng);
  RmsProp opt(1e-4);
  const Tensor x = random_batch(5, rng);  // the paper's batch size
  const std::vector<std::uint32_t> labels{0, 1, 2, 3, 6};
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.train_batch(x, labels, opt));
  }
  state.counters["params"] = static_cast<double>(model.num_parameters());
}
BENCHMARK(BM_CnnTrainBatch)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_CnnPredict(benchmark::State& state) {
  Rng rng(2);
  Sequential model = paper_cnn(16, rng);
  const Tensor x = random_batch(static_cast<std::size_t>(state.range(0)),
                                rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict_proba(x));
  }
}
BENCHMARK(BM_CnnPredict)->Arg(1)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_Conv2DForward(benchmark::State& state) {
  Rng rng(3);
  Conv2D conv(1, static_cast<std::size_t>(state.range(0)), 6, 12, rng);
  const Tensor x = random_batch(5, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x, false));
  }
}
BENCHMARK(BM_Conv2DForward)->Arg(16)->Arg(64)->Arg(200);

// The classifier's second conv (F -> F channels, 6x12 kernel) on the pooled
// maps it sees: 11x5 from the pipeline's 12x6 flow matrix, 11x11 from the
// 12x12 matrix above. Args: filters, pooled width. This layer is most of a
// training step, and its forward is most of pool prediction.
Tensor pooled_batch(std::size_t w, std::size_t filters, Rng& rng) {
  Tensor x({5, 11, w, filters});
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.normal();
  return x;
}

void conv2_args(benchmark::internal::Benchmark* b) {
  for (const int w : {5, 11}) {
    for (const int filters : {16, 64, 200}) b->Args({filters, w});
  }
}

void BM_Conv2DForwardFF(benchmark::State& state) {
  Rng rng(5);
  const auto filters = static_cast<std::size_t>(state.range(0));
  Conv2D conv(filters, filters, 6, 12, rng);
  const Tensor x =
      pooled_batch(static_cast<std::size_t>(state.range(1)), filters, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x, false));
  }
}
BENCHMARK(BM_Conv2DForwardFF)->Apply(conv2_args)
    ->Unit(benchmark::kMillisecond);

void BM_Conv2DBackward(benchmark::State& state) {
  Rng rng(6);
  const auto filters = static_cast<std::size_t>(state.range(0));
  Conv2D conv(filters, filters, 6, 12, rng);
  const Tensor x =
      pooled_batch(static_cast<std::size_t>(state.range(1)), filters, rng);
  const Tensor out = conv.forward(x, true);
  Tensor grad(out.shape());
  for (std::size_t i = 0; i < grad.size(); ++i) grad[i] = rng.normal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.backward(grad));
  }
}
BENCHMARK(BM_Conv2DBackward)->Apply(conv2_args)
    ->Unit(benchmark::kMillisecond);

void BM_OptimizerStep(benchmark::State& state) {
  Rng rng(4);
  Tensor w({100000});
  Tensor g({100000});
  for (std::size_t i = 0; i < g.size(); ++i) g[i] = rng.normal();
  RmsProp opt(1e-4);
  for (auto _ : state) {
    opt.step({&w}, {&g});
    benchmark::DoNotOptimize(w[0]);
  }
}
BENCHMARK(BM_OptimizerStep);

}  // namespace
