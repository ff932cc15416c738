// label_engine: in-process SynthesisEvaluator::evaluate_many on one batch
// of fresh unique m=2 flows of alu16, 2-thread pool, default 256 MiB prefix
// budget, no store.
//
// The traced rep replays every flow through the layer calls in the
// evaluator's own order (sorted batch, contiguous groups across the pool,
// PrefixFlowCache::longest_prefix, TransformRegistry::apply_analyzed per
// suffix step with PrefixFlowCache::insert of each prefix, then
// fingerprint-deduped map::evaluate_qor) with a span around each call, and
// must return QoR bit-identical to the timed rep's SynthesisEvaluator.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <numeric>
#include <unordered_map>

#include "aig/analysis.hpp"
#include "core/evaluator.hpp"
#include "core/flow_cache.hpp"
#include "core/flow_space.hpp"
#include "designs/registry.hpp"
#include "layers.hpp"
#include "map/mapper.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr const char* kDesign = "alu16";
constexpr std::size_t kFlows = 200;
constexpr std::size_t kThreads = 2;
constexpr std::size_t kCheckedFlows = 8;

std::vector<core::Flow> make_flows(std::uint64_t seed) {
  util::Rng rng(mix_seed(seed, 1));
  return core::FlowSpace(2).sample_unique(kFlows, rng);
}

bool write_qor(const std::string& path, const std::vector<map::QoR>& qor) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (const map::QoR& q : qor) {
    std::fprintf(f, "%a %a %zu %zu\n", q.area_um2, q.delay_ps, q.num_cells,
                 q.num_inverters);
  }
  return std::fclose(f) == 0;
}

std::vector<map::QoR> read_qor(const std::string& path) {
  std::vector<map::QoR> out;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (!f) return out;
  map::QoR q;
  while (std::fscanf(f, "%la %la %zu %zu", &q.area_um2, &q.delay_ps,
                     &q.num_cells, &q.num_inverters) == 4) {
    out.push_back(q);
  }
  std::fclose(f);
  return out;
}

struct FingerprintHash {
  std::size_t operator()(const aig::Fingerprint& fp) const noexcept {
    return static_cast<std::size_t>(fp[0] ^ (fp[1] * 0x9e3779b97f4a7c15ull));
  }
};

/// The evaluator's miss path, one layer call at a time, under spans.
class Replay {
public:
  Replay(const aig::Aig& design, SpanLog& log)
      : design_(design),
        design_analysis_(std::make_shared<aig::AnalysisCache>(design)),
        log_(log) {}

  map::QoR evaluate(core::StepsView steps) {
    const opt::TransformRegistry& registry = *opt::TransformRegistry::paper();
    SpanLog::Scope flow_span(log_, "engine", "flow");
    std::size_t depth = 0;
    std::shared_ptr<const aig::Aig> cur;
    std::shared_ptr<aig::AnalysisCache> cur_an;
    {
      SpanLog::Scope span(log_, "flow_cache", "longest_prefix");
      const core::PrefixFlowCache::Hit hit = cache_.longest_prefix(steps);
      if (hit.aig) {
        depth = hit.depth;
        cur = hit.aig;
        cur_an = hit.analysis;
      }
    }
    bool derive_on = true;
    if (!cache_.analysis_retained()) derive_on = probe_++ % 64 == 0;
    for (std::size_t i = depth; i < steps.size(); ++i) {
      aig::AnalysisCache* in = cur ? cur_an.get() : design_analysis_.get();
      const bool derive = derive_on && i + 1 < steps.size();
      opt::AnalyzedTransform r;
      {
        SpanLog::Scope span(log_, "opt", registry.name(steps[i]));
        r = registry.apply_analyzed(cur ? *cur : design_, steps[i], in, derive);
      }
      cur = std::make_shared<const aig::Aig>(std::move(r.graph));
      cur_an = std::move(r.analysis);
      if (i + 1 < steps.size()) {
        SpanLog::Scope span(log_, "flow_cache", "insert");
        cache_.insert(steps.subspan(0, i + 1), cur, cur_an);
      }
    }
    SpanLog::Scope span(log_, "map", "map_deduped");
    const aig::Fingerprint fp = cur->fingerprint();
    {
      std::lock_guard lock(mu_);
      if (const auto it = mapped_.find(fp); it != mapped_.end()) {
        return it->second;
      }
    }
    const map::QoR qor = map::evaluate_qor(*cur);
    std::lock_guard lock(mu_);
    mapped_.emplace(fp, qor);
    return qor;
  }

private:
  const aig::Aig& design_;
  std::shared_ptr<aig::AnalysisCache> design_analysis_;
  SpanLog& log_;
  core::PrefixFlowCache cache_;
  std::atomic<std::size_t> probe_{0};
  std::mutex mu_;
  std::unordered_map<aig::Fingerprint, map::QoR, FingerprintHash> mapped_;
};

}  // namespace

int run_engine(const Args& args) {
  const std::vector<core::Flow> flows = make_flows(input_seed(args));
  Result out;

  const double t_setup = now_s();
  const aig::Aig design = designs::make_design(kDesign);
  auto evaluator = std::make_unique<core::SynthesisEvaluator>(design);
  auto pool = std::make_unique<util::ThreadPool>(kThreads);
  out.num("setup_s", now_s() - t_setup);
  if (args.mode == "setup") {
    out.print();
    return 0;
  }

  if (args.mode == "timed") {
    const double t0 = now_s();
    std::vector<map::QoR> qor = evaluator->evaluate_many(flows, pool.get());
    const double wall = now_s() - t0;
    const core::EvaluatorStats stats = evaluator->stats();
    const aig::AnalysisCounters analysis = aig::analysis_counters();
    out.num("peak_rss_mb", peak_rss_mb(false));
    pool.reset();
    evaluator.reset();
    if (!args.qor_file.empty() && !write_qor(args.qor_file, qor)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.qor_file.c_str());
      return 1;
    }

    util::ThreadPool check_pool(4);
    const std::vector<std::size_t> sample =
        sample_indices(flows.size(), kCheckedFlows,
                       mix_seed(input_seed(args), 2));
    if (args.plant_wrong_label) plant_wrong_label(qor, sample);
    const std::size_t failed =
        check_labels(design, *opt::TransformRegistry::paper(), flows, qor,
                     sample, check_pool, input_seed(args));

    out.num("threads", kThreads);
    out.num("workers", 0);
    out.num("wall_s", wall);
    out.num("flows", static_cast<double>(flows.size()));
    out.samples("batch_ms", {wall * 1000.0});
    out.num("attempted", static_cast<double>(flows.size()));
    out.num("failed", static_cast<double>(failed));
    out.num("checked", static_cast<double>(sample.size()));
    emit_counts(out, counts_from_engine(stats, analysis));
    out.print();
    return 0;
  }

  // traced: replay under spans, then compare with the timed rep's labels.
  evaluator.reset();
  SpanLog log;
  Replay replay(design, log);
  std::vector<std::size_t> order(flows.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return flows[a].steps < flows[b].steps;
  });
  std::vector<map::QoR> qor(flows.size());
  const std::size_t groups = std::min(flows.size(), pool->size() * 4);
  const double t0 = now_s();
  pool->parallel_for(groups, [&](std::size_t gi) {
    const std::size_t begin = gi * order.size() / groups;
    const std::size_t end = (gi + 1) * order.size() / groups;
    for (std::size_t i = begin; i < end; ++i) {
      qor[order[i]] = replay.evaluate(flows[order[i]].steps);
    }
  });
  const double wall = now_s() - t0;

  const std::vector<map::QoR> reference = read_qor(args.qor_file);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (i >= reference.size() || !(reference[i] == qor[i])) ++mismatches;
  }
  if (mismatches) {
    std::fprintf(stderr,
                 "perfbench: replay differs from the evaluator on %zu flows\n",
                 mismatches);
  }

  const std::map<std::string, double> self = log.self_seconds();
  const auto self_of = [&](const char* layer) {
    const auto it = self.find(layer);
    return it == self.end() ? 0.0 : it->second;
  };
  const auto mean_us = [&](const std::string& name) {
    const std::vector<double> d = log.durations_us(name);
    return d.empty() ? 0.0 : std::accumulate(d.begin(), d.end(), 0.0) /
                                 static_cast<double>(d.size());
  };
  const opt::TransformRegistry& registry = *opt::TransformRegistry::paper();
  for (std::size_t id = 0; id < registry.size(); ++id) {
    const std::string& spec = registry.name(static_cast<opt::StepId>(id));
    out.num("opt." + metric_fragment(spec) + ".ms", mean_us(spec) / 1000.0);
  }
  out.num("opt.self_s", self_of("opt"));
  out.num("map.self_s", self_of("map"));
  out.num("flow_cache.lookup_us", mean_us("longest_prefix"));
  out.num("flow_cache.insert_us", mean_us("insert"));
  const double busy = wall * static_cast<double>(kThreads);
  const double attributed =
      self_of("opt") + self_of("map") + self_of("flow_cache");
  out.num("trace.unattributed_ratio", (busy - attributed) / busy);
  out.num("traced_wall_s", wall);
  out.num("attempted", static_cast<double>(flows.size()));
  out.num("failed", static_cast<double>(mismatches));
  out.num("replay_identical", mismatches == 0 ? 1.0 : 0.0);
  if (!log.write_trace(args, out)) return 1;
  out.print();
  return 0;
}

}  // namespace perfbench
