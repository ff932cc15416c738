// label_fleet: closed loop, one client. Batches of 16 flows of alu:1 (12
// fresh + 4 re-queried from earlier batches) through
// RemoteEvaluator::loopback("alu:1", 2) with result streaming on and a
// QorStore attached in a fresh directory. The workers are forked before
// this process creates any thread pool; the evaluator's destructor reaps
// them, and the store directory is removed on every exit path (run.py
// kills the process group and removes the work directory on a signal).
//
// The traced rep times each batch under a span, diffs CoordinatorStats per
// batch for its shard round trips, scrapes the fleet's metrics for
// worker-side time, and times wire encode/decode and QorStore
// append/lookup on the workload's own messages and records.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <unistd.h>

#include "core/flow_space.hpp"
#include "core/qor_store.hpp"
#include "designs/registry.hpp"
#include "layers.hpp"
#include "service/remote_evaluator.hpp"
#include "service/wire.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr const char* kDesign = "alu:1";
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kBatches = 1500;
constexpr std::size_t kBatchSize = 16;
constexpr std::size_t kRequeried = 4;
constexpr std::size_t kCheckedFlows = 64;

/// The closed loop's input: every batch, and which of its flows repeat an
/// earlier batch's (those are answered from the store).
struct Batches {
  std::vector<std::vector<core::Flow>> flows;
  std::vector<std::vector<bool>> repeated;
};

Batches make_batches(std::uint64_t seed) {
  util::Rng rng(mix_seed(seed, 1));
  const std::size_t fresh_total =
      kBatchSize + (kBatches - 1) * (kBatchSize - kRequeried);
  const std::vector<core::Flow> fresh =
      core::FlowSpace(2).sample_unique(fresh_total, rng);
  Batches b;
  std::size_t next = 0;
  for (std::size_t i = 0; i < kBatches; ++i) {
    std::vector<core::Flow> batch;
    std::vector<bool> repeated;
    const std::size_t fresh_here =
        i == 0 ? kBatchSize : kBatchSize - kRequeried;
    for (std::size_t k = 0; k < fresh_here; ++k) {
      batch.push_back(fresh[next++]);
      repeated.push_back(false);
    }
    while (batch.size() < kBatchSize) {
      const core::Flow& again = fresh[rng.below(next - fresh_here)];
      if (std::find(batch.begin(), batch.end(), again) != batch.end()) continue;
      batch.push_back(again);
      repeated.push_back(true);
    }
    b.flows.push_back(std::move(batch));
    b.repeated.push_back(std::move(repeated));
  }
  return b;
}

/// A directory removed with everything in it when the owner goes away.
class TempDir {
public:
  explicit TempDir(const std::string& path) : path_(path) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

private:
  std::string path_;
};

std::shared_ptr<core::QorStore> open_store(const std::string& dir) {
  core::QorStoreConfig config;
  config.dir = dir;
  return std::make_shared<core::QorStore>(std::move(config));
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

/// Wire and store layer timings on the workload's own messages and
/// records: one EvalRequest per shard the coordinator formed for the
/// batch, one EvalResult per answered fresh flow, one store append per
/// fresh label and one lookup per re-queried flow.
void time_wire_and_store(Result& out, const Batches& batches,
                         const std::vector<std::vector<map::QoR>>& answers,
                         const std::vector<std::size_t>& shards_per_batch,
                         const aig::Fingerprint& design_fp,
                         const std::string& store_dir) {
  std::vector<double> encode_us, decode_us, append_us, lookup_us;
  const auto time_us = [](auto&& fn) {
    const std::uint64_t t0 = SpanLog::now_us();
    fn();
    return static_cast<double>(SpanLog::now_us() - t0);
  };
  std::uint64_t request_id = 0;
  for (std::size_t b = 0; b < batches.flows.size(); ++b) {
    std::vector<std::size_t> fresh;
    for (std::size_t k = 0; k < kBatchSize; ++k) {
      if (!batches.repeated[b][k]) fresh.push_back(k);
    }
    const std::size_t shards = std::max<std::size_t>(1, shards_per_batch[b]);
    for (std::size_t s = 0; s < shards; ++s) {
      service::EvalRequestMsg req;
      req.request_id = ++request_id;
      req.design = design_fp;
      req.flags = service::kFlagStreamResults;
      for (std::size_t k = s * fresh.size() / shards;
           k < (s + 1) * fresh.size() / shards; ++k) {
        req.flows.push_back(batches.flows[b][fresh[k]].steps);
      }
      std::vector<std::uint8_t> bytes;
      encode_us.push_back(
          time_us([&] { bytes = service::encode_eval_request(req); }));
      decode_us.push_back(
          time_us([&] { (void)service::decode_eval_request(bytes); }));
    }
    for (std::size_t k = 0; k < fresh.size(); ++k) {
      service::EvalResultMsg res;
      res.request_id = request_id;
      res.index = static_cast<std::uint32_t>(k);
      res.result = answers[b][fresh[k]];
      std::vector<std::uint8_t> bytes;
      encode_us.push_back(
          time_us([&] { bytes = service::encode_eval_result(res); }));
      decode_us.push_back(
          time_us([&] { (void)service::decode_eval_result(bytes); }));
    }
  }
  out.num("wire.encode_us", mean(encode_us));
  out.num("wire.decode_us", mean(decode_us));

  TempDir dir(store_dir);
  std::shared_ptr<core::QorStore> store = open_store(dir.path());
  for (std::size_t b = 0; b < batches.flows.size(); ++b) {
    for (std::size_t k = 0; k < kBatchSize; ++k) {
      const core::StepsView steps(batches.flows[b][k].steps);
      if (batches.repeated[b][k]) {
        lookup_us.push_back(
            time_us([&] { (void)store->lookup(design_fp, steps); }));
      } else {
        append_us.push_back(
            time_us([&] { store->append(design_fp, steps, answers[b][k]); }));
      }
    }
  }
  out.num("qor_store.append_us", mean(append_us));
  out.num("qor_store.lookup_us", mean(lookup_us));
}

}  // namespace

int run_fleet(const Args& args) {
  const Batches batches = make_batches(input_seed(args));
  const std::string tag = std::to_string(::getpid());
  Result out;

  const double t_setup = now_s();
  TempDir store_dir(args.work_dir + "/fleet-store-" + tag);
  // Fork before anything starts a thread in this process.
  std::unique_ptr<service::RemoteEvaluator> fleet =
      service::RemoteEvaluator::loopback(kDesign, kWorkers);
  fleet->attach_store(open_store(store_dir.path()));
  out.num("setup_s", now_s() - t_setup);
  if (args.mode == "setup") {
    fleet.reset();
    out.print();
    return 0;
  }

  const bool traced = args.mode == "traced";
  SpanLog log;
  std::vector<std::vector<map::QoR>> answers(kBatches);
  std::vector<double> batch_ms;
  std::vector<double> shard_ms;
  std::vector<double> overhead_ms;
  std::vector<std::size_t> shards_per_batch(kBatches, 0);
  std::vector<bool> batch_failed(kBatches, false);
  std::size_t failed = 0;
  std::size_t shards_done = 0;

  const double t0 = now_s();
  for (std::size_t b = 0; b < kBatches; ++b) {
    const std::uint64_t start = SpanLog::now_us();
    try {
      answers[b] = fleet->evaluate_many(batches.flows[b]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: batch %zu failed: %s\n", b, e.what());
      answers[b].assign(kBatchSize, map::QoR{});
      batch_failed[b] = true;
      failed += kBatchSize;
    }
    const std::uint64_t dur = SpanLog::now_us() - start;
    batch_ms.push_back(static_cast<double>(dur) / 1000.0);
    if (!traced) continue;
    // This batch's shards are the newest entries of the coordinator's
    // latency window (one client, so nothing else retires shards).
    const service::CoordinatorStats s = fleet->stats();
    const std::size_t fresh_shards = s.shards_done - shards_done;
    shards_done = s.shards_done;
    shards_per_batch[b] = fresh_shards;
    const std::size_t n = std::min(fresh_shards, s.shard_ms.size());
    double slowest = 0;
    for (std::size_t i = s.shard_ms.size() - n; i < s.shard_ms.size(); ++i) {
      shard_ms.push_back(s.shard_ms[i]);
      slowest = std::max(slowest, s.shard_ms[i]);
    }
    const auto slowest_us = std::min<std::uint64_t>(
        dur, static_cast<std::uint64_t>(slowest * 1000.0));
    overhead_ms.push_back(static_cast<double>(dur - slowest_us) / 1000.0);
    log.record("worker", "shard_round_trip", start + dur - slowest_us,
               slowest_us, slowest_us);
    log.record("coordinator", "evaluate_many", start, dur, dur - slowest_us);
  }
  const double wall = now_s() - t0;

  const service::CoordinatorStats stats = fleet->stats();
  std::string page;
  if (traced) page = fleet->coordinator().fleet_metrics_text();
  fleet.reset();  // reaps the workers
  out.num("peak_rss_mb", peak_rss_mb(true));

  // Label check, outside the timed region, over the answered batches (a
  // thrown batch already counts all its flows as failed).
  const aig::Aig design = designs::make_design(kDesign);
  std::vector<core::Flow> all_flows;
  std::vector<map::QoR> all_answers;
  for (std::size_t b = 0; b < kBatches; ++b) {
    if (batch_failed[b]) continue;
    const std::vector<core::Flow>& flows = batches.flows[b];
    all_flows.insert(all_flows.end(), flows.begin(), flows.end());
    all_answers.insert(all_answers.end(), answers[b].begin(),
                       answers[b].end());
  }
  const std::vector<std::size_t> sample =
      sample_indices(all_flows.size(), kCheckedFlows,
                     mix_seed(input_seed(args), 2));
  if (args.plant_wrong_label) plant_wrong_label(all_answers, sample);
  util::ThreadPool check_pool(4);
  failed += check_labels(design, *opt::TransformRegistry::paper(), all_flows,
                         all_answers, sample, check_pool, input_seed(args));

  const double flows = static_cast<double>(kBatches * kBatchSize);
  out.num("threads", 1);
  out.num("workers", kWorkers);
  out.num("wall_s", wall);
  out.num("flows", flows);
  out.samples("batch_ms", batch_ms);
  out.num("attempted", flows);
  out.num("failed", static_cast<double>(failed));
  out.num("checked", static_cast<double>(sample.size()));
  if (!traced) {
    out.print();
    return 0;
  }

  const std::map<std::string, double> self = log.self_seconds();
  double attributed = 0;
  for (const auto& [layer, seconds] : self) attributed += seconds;
  const double worker_eval_s =
      (page_sum(page, "flowgen_transform_ms_sum") +
       page_sum(page, "flowgen_mapping_ms_sum")) / 1000.0;
  out.num("traced_wall_s", wall);
  out.num("trace.unattributed_ratio", (wall - attributed) / wall);
  out.num("coordinator.shard_ms_p50", percentile(shard_ms, 0.5));
  out.num("coordinator.shard_ms_p90", percentile(shard_ms, 0.9));
  out.num("coordinator.shards", static_cast<double>(stats.shards));
  out.num("coordinator.requests_sent",
          static_cast<double>(stats.requests_sent));
  out.num("coordinator.overhead_ms_p50", percentile(overhead_ms, 0.5));
  out.num("worker.eval_s", worker_eval_s);
  out.num("worker.busy_ratio",
          worker_eval_s / (static_cast<double>(kWorkers) * wall));
  // Every frame has the coordinator at one end, and only its event loop
  // counts frames: rx + tx there is each frame on the wire once.
  out.num("wire.frames", page_sum(page, "flowgen_frames_rx_total") +
                             page_sum(page, "flowgen_frames_tx_total"));
  out.num("wire.bytes", page_sum(page, "flowgen_frame_bytes_rx_total") +
                            page_sum(page, "flowgen_frame_bytes_tx_total"));
  out.num("qor_store.appends", static_cast<double>(stats.store_appends));
  out.num("qor_store.hits", static_cast<double>(stats.store_hits));
  emit_pass_times_from_page(out, page, *opt::TransformRegistry::paper());
  emit_counts(out, counts_from_page(page));
  time_wire_and_store(out, batches, answers, shards_per_batch,
                      design.fingerprint(),
                      args.work_dir + "/fleet-store-timing-" + tag);
  if (!log.write_trace(args, out)) return 1;
  out.print();
  return 0;
}

}  // namespace perfbench
