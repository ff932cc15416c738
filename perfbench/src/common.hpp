#pragma once
// Shared pieces of the benchmark driver: command line, result lines, the
// label check, peak RSS, and the in-memory span log of the traced runs.
//
// One driver process runs one repetition of one workload from cold
// process-wide state (perfbench/run.py starts a fresh process per rep), so
// no rep is answered from an earlier rep's caches or the tt->factored-form
// memo an earlier rep filled.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "core/flow.hpp"
#include "map/qor.hpp"
#include "opt/registry.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using namespace flowgen;

struct Args {
  std::string workload;
  std::string mode = "timed";  ///< setup | timed | traced
  std::uint64_t seed = 1;
  /// Repetition index within a run; every rep labels its own flows.
  std::uint64_t rep = 0;
  std::string work_dir = ".";  ///< temp stores and trace files go here
  std::string qor_file;        ///< timed engine rep writes, traced reads
  bool plant_wrong_label = false;
};

Args parse_args(int argc, char** argv);

/// Seed of this rep's inputs: the benchmark seed mixed with the rep index.
std::uint64_t input_seed(const Args& args);

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Peak resident set of this process, and of its reaped children when
/// `with_children` (the loopback workers of label_fleet), in MiB.
double peak_rss_mb(bool with_children);

/// splitmix64: independent sub-seeds from the benchmark seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// Flat JSON object written as one line on stdout; run.py reads the last
/// line of each driver process.
class Result {
public:
  void num(const std::string& key, double value);
  void text(const std::string& key, const std::string& value);
  void samples(const std::string& key, const std::vector<double>& values);
  void print() const;

private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Percentile of `values` by linear interpolation (q in [0, 1]).
double percentile(std::vector<double> values, double q);

/// Label check, run outside every timed region: re-evaluate `sample` from
/// scratch (TransformRegistry::apply_steps + map::evaluate_qor), require
/// the QoR the path under test returned bit-identical and the final AIG
/// random-equivalent to the design. Returns the number of flows that fail.
std::size_t check_labels(const aig::Aig& design,
                         const opt::TransformRegistry& registry,
                         std::span<const core::Flow> flows,
                         std::span<const map::QoR> returned,
                         std::span<const std::size_t> sample,
                         util::ThreadPool& pool, std::uint64_t seed);

/// `count` distinct indices below `n` (all of them when count >= n),
/// ascending, drawn from `seed`.
std::vector<std::size_t> sample_indices(std::size_t n, std::size_t count,
                                        std::uint64_t seed);

/// The planted-wrong-label hook of the benchmark's own test: corrupt the
/// first sampled answer so the label check must catch it.
void plant_wrong_label(std::vector<map::QoR>& returned,
                       std::span<const std::size_t> sample);

/// Registry spec name as a metric-name fragment ("rewrite -z" ->
/// "rewrite-z").
std::string metric_fragment(const std::string& spec_name);

/// In-memory span log of a traced run. Spans nest per thread; on close
/// each span adds its self time (duration minus its direct children) to
/// its layer. Nothing is written until write_chrome_trace at the end.
class SpanLog {
public:
  class Scope {
  public:
    Scope(SpanLog& log, const char* layer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    SpanLog& log_;
    std::size_t index_;
  };

  /// Record a span whose interval the caller measured itself.
  void record(const char* layer, std::string name, std::uint64_t start_us,
              std::uint64_t dur_us, std::uint64_t self_us);

  /// Self time per layer, seconds.
  std::map<std::string, double> self_seconds() const;
  /// Duration of every closed span named `name`, microseconds.
  std::vector<double> durations_us(const std::string& name) const;
  bool write_chrome_trace(const std::string& path) const;
  /// Write the Chrome trace of a traced rep into the work directory and
  /// name it in `out` ("trace_file"); false when it cannot be written.
  bool write_trace(const Args& args, Result& out) const;

  static std::uint64_t now_us();

private:
  struct Span {
    const char* layer = "";
    std::string name;
    std::uint64_t start_us = 0;
    std::uint64_t dur_us = 0;
    std::uint64_t child_us = 0;
    std::uint64_t self_us = 0;
    std::uint64_t parent = 0;  ///< 1-based index into spans_; 0 = root
    std::uint32_t tid = 0;
  };
  std::size_t open(const char* layer, std::string name);
  void close(std::size_t index);

  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
