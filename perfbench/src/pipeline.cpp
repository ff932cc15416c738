// pipeline_cnn: FlowGenPipeline::run on alu:2 — m=2, 300 training flows
// labeled in two rounds, a 500-flow prediction pool, 25 RMSProp steps per
// round at batch 5, 2 threads — with the paper's classifier (6x12 kernels,
// SELU, dropout 0.4) at 64 conv filters.
//
// The traced rep takes its stage times from RoundStats and the round
// callback, its transform/mapping/cache counts from this process's metrics
// page, and its per-layer nn times from an nn::Sequential built with the
// classifier's architecture and driven one layer at a time for the same
// number of training steps.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "core/classifier.hpp"
#include "core/flow_space.hpp"
#include "core/one_hot.hpp"
#include "core/pipeline.hpp"
#include "designs/registry.hpp"
#include "layers.hpp"
#include "nn/conv2d.hpp"
#include "nn/layers.hpp"
#include "nn/locally_connected.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"
#include "nn/optimizers.hpp"
#include "nn/pooling.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr const char* kDesign = "alu:2";
constexpr std::size_t kRounds = 2;
constexpr std::size_t kThreads = 2;

core::PipelineConfig make_config(std::uint64_t seed) {
  core::PipelineConfig c;
  c.repetitions = 2;
  c.training_flows = 300;
  c.sample_flows = 500;
  c.initial_labeled = c.training_flows / kRounds;
  c.retrain_every = c.training_flows / kRounds;
  c.steps_per_round = 25;
  c.num_angel = 25;
  c.num_devil = 25;
  c.threads = kThreads;
  c.classifier.conv_filters = 64;
  c.seed = mix_seed(seed, 1);
  return c;
}

/// The classifier configuration FlowGenPipeline derives from the space.
core::ClassifierConfig classifier_config(const core::PipelineConfig& c) {
  core::ClassifierConfig cc = c.classifier;
  cc.flow_length = opt::TransformRegistry::paper()->size() * c.repetitions;
  cc.num_transforms = opt::TransformRegistry::paper()->size();
  cc.num_classes = c.labeler.quantiles.size() + 1;
  return cc;
}

/// Per-layer nn times per training step. Layer groups follow the
/// classifier's stack: conv1 = Conv2D+Activation+MaxPool, conv2 likewise,
/// local = LocallyConnected2D+Activation+Flatten, dense = the rest plus
/// the loss.
void time_nn_layers(Result& out, const core::ClassifierConfig& cc,
                    std::size_t steps, std::size_t batch, std::uint64_t seed,
                    SpanLog& log) {
  util::Rng rng(mix_seed(seed, 3));
  std::size_t h = 0, w = 0;
  core::default_reshape(cc.flow_length, cc.num_transforms, h, w);
  nn::Sequential m;
  m.emplace<nn::Conv2D>(1, cc.conv_filters, cc.kernel_h, cc.kernel_w, rng);
  m.emplace<nn::Activation>(cc.activation);
  m.emplace<nn::MaxPool2D>(2, 2, 1);
  m.emplace<nn::Conv2D>(cc.conv_filters, cc.conv_filters, cc.kernel_h,
                        cc.kernel_w, rng);
  m.emplace<nn::Activation>(cc.activation);
  m.emplace<nn::MaxPool2D>(2, 2, 1);
  m.emplace<nn::LocallyConnected2D>(h - 2, w - 2, cc.conv_filters,
                                    cc.local_filters, cc.local_kernel,
                                    cc.local_kernel, rng);
  m.emplace<nn::Activation>(cc.activation);
  m.emplace<nn::Flatten>();
  const std::size_t flat = (h - 2 - cc.local_kernel + 1) *
                           (w - 2 - cc.local_kernel + 1) * cc.local_filters;
  m.emplace<nn::Dense>(flat, cc.dense_units, rng);
  m.emplace<nn::Activation>(cc.activation);
  m.emplace<nn::Dropout>(cc.dropout_rate, rng);
  m.emplace<nn::Dense>(cc.dense_units, cc.num_classes, rng);
  const char* group[] = {"conv1", "conv1", "conv1", "conv2", "conv2",
                         "conv2", "local", "local", "local", "dense",
                         "dense", "dense", "dense"};
  std::map<std::string, double> fwd_us, bwd_us;
  double optimizer_us = 0;
  std::unique_ptr<nn::Optimizer> optimizer =
      nn::make_optimizer("RMSProp", 1e-4);
  const core::FlowSpace space(2);
  const auto timed = [&](const std::string& name, auto&& fn) {
    const std::uint64_t t0 = SpanLog::now_us();
    {
      SpanLog::Scope span(log, "nn", name);
      fn();
    }
    return static_cast<double>(SpanLog::now_us() - t0);
  };
  for (std::size_t step = 0; step < steps; ++step) {
    std::vector<core::Flow> flows;
    std::vector<std::uint32_t> labels;
    for (std::size_t b = 0; b < batch; ++b) {
      flows.push_back(space.random_flow(rng));
      labels.push_back(static_cast<std::uint32_t>(rng.below(cc.num_classes)));
    }
    nn::Tensor x = core::one_hot_batch(flows, cc.num_transforms, h, w);
    const auto& layers = m.layers();
    for (std::size_t i = 0; i < layers.size(); ++i) {
      fwd_us[group[i]] += timed(std::string(group[i]) + ".fwd",
                                [&] { x = layers[i]->forward(x, true); });
    }
    nn::Tensor grad;
    fwd_us["dense"] += timed("loss", [&] {
      grad = nn::sparse_softmax_cross_entropy(x, labels).grad_logits;
    });
    for (std::size_t i = layers.size(); i-- > 0;) {
      bwd_us[group[i]] += timed(std::string(group[i]) + ".bwd",
                                [&] { grad = layers[i]->backward(grad); });
    }
    optimizer_us += timed("optimizer",
                          [&] { optimizer->step(m.params(), m.grads()); });
  }
  const double per_step_ms = 1.0 / (1000.0 * static_cast<double>(steps));
  for (const char* g : {"conv1", "conv2", "local"}) {
    out.num(std::string("nn.") + g + ".fwd_ms", fwd_us[g] * per_step_ms);
    out.num(std::string("nn.") + g + ".bwd_ms", bwd_us[g] * per_step_ms);
  }
  out.num("nn.dense.ms", (fwd_us["dense"] + bwd_us["dense"]) * per_step_ms);
  out.num("nn.optimizer.ms", optimizer_us * per_step_ms);
}

}  // namespace

int run_pipeline(const Args& args) {
  const core::PipelineConfig config = make_config(input_seed(args));
  Result out;

  const double t_setup = now_s();
  auto pipeline = std::make_unique<core::FlowGenPipeline>(
      designs::make_design(kDesign), config);
  out.num("setup_s", now_s() - t_setup);
  if (args.mode == "setup") {
    out.print();
    return 0;
  }

  // Round boundaries, for the traced rep's stage spans.
  std::vector<std::uint64_t> round_end_us;
  pipeline->set_round_callback([&](const core::RoundStats&) {
    round_end_us.push_back(SpanLog::now_us());
  });
  const std::uint64_t start_us = SpanLog::now_us();
  const double t0 = now_s();
  core::PipelineResult result = pipeline->run();
  const double wall = now_s() - t0;
  const std::uint64_t end_us = SpanLog::now_us();
  out.num("peak_rss_mb", peak_rss_mb(false));
  pipeline.reset();

  double label_s = 0, train_s = 0;
  std::vector<double> batch_ms;
  for (const core::RoundStats& r : result.history) {
    label_s += r.synthesis_seconds;
    train_s += r.train_seconds;
    batch_ms.push_back(r.synthesis_seconds * 1000.0);
  }

  // Label check: the angel and devil flows, outside the timed region.
  std::vector<core::Flow> picked = result.angel_flows;
  picked.insert(picked.end(), result.devil_flows.begin(),
                result.devil_flows.end());
  std::vector<map::QoR> picked_qor = result.angel_qor;
  picked_qor.insert(picked_qor.end(), result.devil_qor.begin(),
                    result.devil_qor.end());
  const std::vector<std::size_t> sample =
      sample_indices(picked.size(), picked.size(), 0);
  if (args.plant_wrong_label) plant_wrong_label(picked_qor, sample);
  util::ThreadPool check_pool(4);
  const std::size_t failed =
      check_labels(designs::make_design(kDesign),
                   *opt::TransformRegistry::paper(), picked, picked_qor,
                   sample, check_pool, input_seed(args));

  const double labeled = static_cast<double>(result.labeled_flows.size());
  out.num("threads", kThreads);
  out.num("workers", 0);
  out.num("wall_s", wall);
  out.num("flows", labeled);
  out.num("label_s", label_s);
  out.samples("batch_ms", batch_ms);
  out.num("attempted", labeled + static_cast<double>(picked.size()));
  out.num("failed", static_cast<double>(failed));
  out.num("checked", static_cast<double>(sample.size()));
  if (args.mode != "traced") {
    out.print();
    return 0;
  }

  // Stage spans: each round is labeling then training then the holdout
  // check; after the last round come the pool prediction and the
  // angel/devil selection.
  SpanLog log;
  std::uint64_t cursor = start_us;
  for (std::size_t i = 0; i < result.history.size(); ++i) {
    const core::RoundStats& r = result.history[i];
    const auto label_us =
        static_cast<std::uint64_t>(r.synthesis_seconds * 1e6);
    const auto train_us = static_cast<std::uint64_t>(r.train_seconds * 1e6);
    log.record("labeler", "label", cursor, label_us, label_us);
    log.record("classifier", "train", cursor + label_us, train_us, train_us);
    cursor = round_end_us[i];
  }
  const std::uint64_t select_us = end_us - cursor;
  log.record("selection", "predict_and_select", cursor, select_us, select_us);
  const double select_s = static_cast<double>(select_us) * 1e-6;
  const double steps = static_cast<double>(kRounds * config.steps_per_round);
  out.num("traced_wall_s", wall);
  out.num("pipeline.label_s", label_s);
  out.num("pipeline.train_s", train_s);
  out.num("pipeline.select_s", select_s);
  out.num("trace.unattributed_ratio",
          (wall - label_s - train_s - select_s) / wall);
  out.num("classifier.train_step_ms", train_s * 1000.0 / steps);

  const std::string page = telemetry::render_prometheus();
  emit_pass_times_from_page(out, page, *opt::TransformRegistry::paper());
  emit_counts(out, counts_from_page(page));

  // Prediction cost per pool flow, on a classifier of the same shape.
  const core::ClassifierConfig cc = classifier_config(config);
  {
    core::CnnFlowClassifier classifier(cc);
    util::Rng rng(mix_seed(input_seed(args), 4));
    const std::vector<core::Flow> pool =
        core::FlowSpace(2).sample_unique(config.sample_flows, rng);
    const std::uint64_t p0 = SpanLog::now_us();
    for (std::size_t i = 0; i < pool.size(); i += config.prediction_chunk) {
      const std::size_t n = std::min(config.prediction_chunk, pool.size() - i);
      SpanLog::Scope span(log, "classifier", "predict_proba");
      (void)classifier.predict_proba(
          std::span<const core::Flow>(pool.data() + i, n));
    }
    out.num("classifier.predict_us",
            static_cast<double>(SpanLog::now_us() - p0) /
                static_cast<double>(pool.size()));
  }
  time_nn_layers(out, cc, static_cast<std::size_t>(steps), config.batch_size,
                 input_seed(args), log);

  if (!log.write_trace(args, out)) return 1;
  out.print();
  return 0;
}

}  // namespace perfbench
