#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "aig/simulate.hpp"
#include "map/mapper.hpp"
#include "util/rng.hpp"

namespace perfbench {

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--plant-wrong-label") {
      a.plant_wrong_label = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--mode") {
      a.mode = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--rep") {
      a.rep = std::stoull(value);
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else if (flag == "--qor-file") {
      a.qor_file = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.mode != "setup" && a.mode != "timed" && a.mode != "traced") {
    throw std::invalid_argument("--mode must be setup, timed or traced");
  }
  return a;
}

std::uint64_t input_seed(const Args& args) {
  return mix_seed(args.seed, 1000 + args.rep);
}

double peak_rss_mb(bool with_children) {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  long kib = self.ru_maxrss;
  if (with_children) {
    rusage children{};
    getrusage(RUSAGE_CHILDREN, &children);
    kib = std::max(kib, children.ru_maxrss);
  }
  return static_cast<double>(kib) / 1024.0;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void Result::num(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
  fields_.emplace_back(key, buf);
}

void Result::text(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, "\"" + value + "\"");
}

void Result::samples(const std::string& key,
                     const std::vector<double>& values) {
  std::string out = "[";
  char buf[64];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", values[i]);
    out += buf;
  }
  fields_.emplace_back(key, out + "]");
}

void Result::print() const {
  std::string line = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    line += (i ? ", \"" : "\"") + fields_[i].first + "\": " + fields_[i].second;
  }
  std::printf("%s}\n", line.c_str());
  std::fflush(stdout);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

std::size_t check_labels(const aig::Aig& design,
                         const opt::TransformRegistry& registry,
                         std::span<const core::Flow> flows,
                         std::span<const map::QoR> returned,
                         std::span<const std::size_t> sample,
                         util::ThreadPool& pool, std::uint64_t seed) {
  std::vector<char> bad(sample.size(), 0);
  pool.parallel_for(sample.size(), [&](std::size_t k) {
    const std::size_t i = sample[k];
    const aig::Aig out = registry.apply_steps(design, flows[i].steps);
    util::Rng rng(mix_seed(seed, i));
    const bool right = map::evaluate_qor(out) == returned[i] &&
                       aig::random_equivalent(out, design, rng);
    bad[k] = right ? 0 : 1;
  });
  const auto failed = static_cast<std::size_t>(
      std::count(bad.begin(), bad.end(), 1));
  if (failed) {
    std::fprintf(stderr, "perfbench: %zu of %zu sampled labels are wrong\n",
                 failed, sample.size());
  }
  return failed;
}

std::vector<std::size_t> sample_indices(std::size_t n, std::size_t count,
                                        std::uint64_t seed) {
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  if (count < n) {
    util::Rng rng(seed);
    for (std::size_t i = 0; i < count; ++i) {
      std::swap(all[i], all[i + rng.below(n - i)]);
    }
    all.resize(count);
    std::sort(all.begin(), all.end());
  }
  return all;
}

void plant_wrong_label(std::vector<map::QoR>& returned,
                       std::span<const std::size_t> sample) {
  if (!sample.empty()) returned[sample.front()].area_um2 += 1.0;
}

std::string metric_fragment(const std::string& spec_name) {
  std::string out;
  for (const char c : spec_name) {
    if (c != ' ') out += c;
  }
  return out;
}

// ---------------------------------------------------------------- spans --

namespace {

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

/// Open spans of this thread (1-based indices into the log).
thread_local std::vector<std::size_t> t_open;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::uint64_t SpanLog::now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SpanLog::Scope::Scope(SpanLog& log, const char* layer, std::string name)
    : log_(log), index_(log.open(layer, std::move(name))) {}

SpanLog::Scope::~Scope() { log_.close(index_); }

std::size_t SpanLog::open(const char* layer, std::string name) {
  Span s;
  s.layer = layer;
  s.name = std::move(name);
  s.tid = thread_index();
  s.parent = t_open.empty() ? 0 : t_open.back();
  s.start_us = now_us();
  std::lock_guard lock(mu_);
  spans_.push_back(std::move(s));
  t_open.push_back(spans_.size());
  return spans_.size();
}

void SpanLog::close(std::size_t index) {
  const std::uint64_t end = now_us();
  t_open.pop_back();
  std::lock_guard lock(mu_);
  Span& s = spans_[index - 1];
  s.dur_us = end - s.start_us;
  s.self_us = s.dur_us > s.child_us ? s.dur_us - s.child_us : 0;
  if (s.parent) spans_[s.parent - 1].child_us += s.dur_us;
}

void SpanLog::record(const char* layer, std::string name,
                     std::uint64_t start_us, std::uint64_t dur_us,
                     std::uint64_t self_us) {
  Span s;
  s.layer = layer;
  s.name = std::move(name);
  s.tid = thread_index();
  s.start_us = start_us;
  s.dur_us = dur_us;
  s.self_us = self_us;
  s.parent = t_open.empty() ? 0 : t_open.back();
  std::lock_guard lock(mu_);
  if (s.parent) spans_[s.parent - 1].child_us += dur_us;
  spans_.push_back(std::move(s));
}

std::map<std::string, double> SpanLog::self_seconds() const {
  std::lock_guard lock(mu_);
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    out[s.layer] += static_cast<double>(s.self_us) * 1e-6;
  }
  return out;
}

std::vector<double> SpanLog::durations_us(const std::string& name) const {
  std::lock_guard lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.dur_us));
  }
  return out;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard lock(mu_);
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"cat\":\"" << s.layer << "\",\"name\":\"" << json_escape(s.name)
        << "\",\"ts\":" << s.start_us << ",\"dur\":" << s.dur_us
        << ",\"args\":{\"id\":" << i + 1 << ",\"parent\":" << s.parent
        << ",\"self_us\":" << s.self_us << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

bool SpanLog::write_trace(const Args& args, Result& out) const {
  const std::string path = args.work_dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + "-" +
                           std::to_string(args.rep) + ".json";
  if (!write_chrome_trace(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return false;
  }
  out.text("trace_file", path);
  return true;
}

}  // namespace perfbench
