#include "service/worker.hpp"

#include <sys/resource.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <sstream>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "aig/reader.hpp"
#include "aig/serialize.hpp"
#include "designs/registry.hpp"
#include "service/reactor.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/crc32.hpp"
#include "util/failpoint.hpp"
#include "util/log.hpp"

namespace flowgen::service {

namespace {

struct ServeMetrics {
  telemetry::Counter& loop_iterations;
  telemetry::Counter& scrapes;
  telemetry::Gauge& eval_queue_depth;
};

ServeMetrics& serve_metrics() {
  static ServeMetrics m{
      telemetry::counter("flowgen_serve_loop_iterations_total",
                         "Serve-loop poll iterations"),
      telemetry::counter("flowgen_metrics_scrapes_total",
                         "kGetMetrics scrapes answered"),
      telemetry::gauge("flowgen_serve_eval_queue_depth",
                       "EvalRequests submitted but not yet completed"),
  };
  return m;
}

constexpr const char* kBudgetExceededMsg =
    "evaluation exceeded its wall-clock budget (watchdog)";

/// Arms a per-evaluation wall-clock budget (EvalService::eval_budget_ms).
/// When the evaluation outlives it, `on_expire` fires once from the
/// watchdog thread — it must be thread-safe and nonthrowing — and
/// expired() turns true so the (still running) evaluation's late frames
/// can be suppressed. budget_ms <= 0 arms nothing. The destructor disarms
/// and joins, so on_expire never outlives its captures.
class EvalWatchdog {
 public:
  EvalWatchdog(int budget_ms, std::function<void()> on_expire) {
    if (budget_ms <= 0) return;
    thread_ = std::thread(
        [this, budget_ms, on_expire = std::move(on_expire)] {
          std::unique_lock lock(mu_);
          if (cv_.wait_for(lock, std::chrono::milliseconds(budget_ms),
                           [this] { return done_; })) {
            return;  // evaluation finished inside its budget
          }
          expired_.store(true, std::memory_order_release);
          lock.unlock();
          on_expire();
        });
  }

  EvalWatchdog(const EvalWatchdog&) = delete;
  EvalWatchdog& operator=(const EvalWatchdog&) = delete;

  ~EvalWatchdog() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  bool expired() const { return expired_.load(std::memory_order_acquire); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::atomic<bool> expired_{false};
  std::thread thread_;
};

// --------------------------------------------------------- the serve loop --
//
// One reactor thread owns the listener (when there is one), the wake pipe,
// and every connection's FrameConn; ServeOptions::eval_threads executor
// threads run the actual evaluations. Control frames (Hello, LoadDesign,
// LoadRegistry, Ping, Shutdown) are handled inline on the loop thread —
// they are cheap — while each EvalRequest becomes an executor task whose
// result frames (streamed EvalResults + ShardDone, or an Error) travel back
// through a mutex-guarded completion queue that wakes the loop via the
// self-pipe. A slow shard therefore never delays accepts, pings, or
// another client's frames, and two requests on one connection may evaluate
// concurrently (their frames interleave; request ids keep them apart).
// Without a listener the loop serves the connections handed to adopt() —
// a loopback worker's socketpair end — and returns once they are gone.

class ServeLoop {
public:
  ServeLoop(Listener* listener, std::function<EvalService()> make_service,
            const ServeOptions& options)
      : listener_(listener),
        make_service_(std::move(make_service)),
        stats_(options.stats),
        stop_accepting_(listener == nullptr) {
    const std::size_t n = std::max<std::size_t>(1, options.eval_threads);
    executors_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      executors_.emplace_back([this] { executor_main(); });
    }
  }

  ~ServeLoop() {
    // Cancel surviving subscriptions first (run() can exit with live
    // connections on a hard accept failure): their listeners capture
    // `this` and must never fire into a destroyed loop.
    for (auto& [id, conn] : conns_) {
      if (conn->store_unsubscribe) conn->store_unsubscribe();
    }
    {
      std::lock_guard lock(mu_);
      executors_stop_ = true;
    }
    tasks_cv_.notify_all();
    for (std::thread& t : executors_) t.join();
  }

  /// Serve an already-connected socket alongside any accepted ones.
  void adopt(Socket sock) {
    const std::uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Conn>(
        id, std::move(sock), std::make_shared<EvalService>(make_service_()));
    poller_.add(conn->frame_conn.fd(), true, false, id);
    conns_.emplace(id, std::move(conn));
    if (stats_) {
      stats_->connections_total.fetch_add(1, std::memory_order_relaxed);
      stats_->connections_open.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void run() {
    if (listener_) poller_.add(listener_->fd(), true, false, kListenerTag);
    poller_.add(wake_.read_fd(), true, false, kWakeTag);
    while (!(stop_accepting_ && conns_.empty())) {
      serve_metrics().loop_iterations.inc();
      const auto& events = poller_.wait(-1);
      for (const Poller::Event& ev : events) {
        if (ev.tag == kWakeTag) {
          wake_.drain();
        } else if (ev.tag == kListenerTag) {
          accept_ready();
        } else {
          on_conn_event(ev);
        }
      }
      drain_completions();
    }
  }

private:
  static constexpr std::uint64_t kListenerTag = 0;
  static constexpr std::uint64_t kWakeTag = 1;
  static constexpr std::uint64_t kFirstConnId = 2;

  struct Conn {
    std::uint64_t id = 0;
    FrameConn frame_conn;
    std::shared_ptr<EvalService> service;
    std::size_t evals_pending = 0;
    /// Executor tasks check this before posting: a dropped connection's
    /// late results go nowhere instead of to a recycled id.
    std::shared_ptr<std::atomic<bool>> gone =
        std::make_shared<std::atomic<bool>>(false);
    /// Cancels this connection's store subscription (null when none).
    std::function<void()> store_unsubscribe;

    Conn(std::uint64_t id_, Socket sock, std::shared_ptr<EvalService> svc)
        : id(id_), frame_conn(std::move(sock)), service(std::move(svc)) {}
  };

  struct Completion {
    std::uint64_t conn_id = 0;
    std::vector<std::uint8_t> frame_bytes;  ///< empty for task-done marks
    bool task_done = false;
  };

  void accept_ready() {
    while (true) {
      Socket sock;
      try {
        sock = listener_->accept(0);
      } catch (const AcceptTimeout&) {
        return;  // drained the backlog
      }
      // TransportError propagates: a hard accept failure (fd exhaustion,
      // dead listener) must surface, not spin.
      if (stop_accepting_) continue;  // drop latecomers during drain
      util::log_info("evald: client connected");
      adopt(std::move(sock));
    }
  }

  void on_conn_event(const Poller::Event& ev) {
    const auto it = conns_.find(ev.tag);
    if (it == conns_.end()) return;  // raced a drop in this batch of events
    Conn& conn = *it->second;
    if (ev.writable) {
      if (conn.frame_conn.on_writable() == FrameConn::Io::kError) {
        drop_conn(ev.tag, "write failed");
        return;
      }
    }
    if (ev.readable || ev.error) {
      std::vector<Frame> frames;
      const FrameConn::Io io = conn.frame_conn.on_readable(frames);
      for (Frame& frame : frames) {
        if (!handle_frame(conn, frame)) {
          drop_conn(ev.tag, "shutdown");
          return;
        }
      }
      if (io == FrameConn::Io::kEof) {
        util::log_info("evald: client disconnected");
        drop_conn(ev.tag, nullptr);
        return;
      }
      if (io == FrameConn::Io::kError) {
        drop_conn(ev.tag, "connection error");
        return;
      }
    }
    update_interest(conn);
  }

  /// Returns false when the client requested Shutdown.
  bool handle_frame(Conn& conn, Frame& frame) {
    const EvalService& service = *conn.service;
    try {
      switch (frame.type) {
        case MsgType::kHello: {
          const HelloMsg hello = decode_hello(frame.payload);
          if (hello.version != kProtocolVersion) {
            enqueue_error(conn, 0,
                          "unsupported protocol version " +
                              std::to_string(hello.version));
            break;
          }
          conn.frame_conn.enqueue(MsgType::kHelloAck,
                                  encode_hello_ack(service.on_hello(hello)));
          break;
        }
        case MsgType::kLoadDesign: {
          aig::Aig design = aig::decode_binary(frame.payload);
          const aig::Fingerprint fp =
              service.on_load_design(std::move(design), frame.payload);
          conn.frame_conn.enqueue(MsgType::kLoadDesignAck,
                                  encode_load_design_ack(fp));
          break;
        }
        case MsgType::kLoadRegistry: {
          std::shared_ptr<const opt::TransformRegistry> registry =
              opt::TransformRegistry::decode(frame.payload);
          const opt::RegistryFingerprint fp =
              service.on_load_registry(std::move(registry), frame.payload);
          conn.frame_conn.enqueue(MsgType::kLoadRegistryAck,
                                  encode_load_registry_ack(fp));
          break;
        }
        case MsgType::kEvalRequest:
          submit_eval(conn, decode_eval_request(frame.payload));
          break;
        case MsgType::kPing:
          conn.frame_conn.enqueue(MsgType::kPong, frame.payload);
          break;
        case MsgType::kGetMetrics:
          // Scrapes render inline on the loop thread: the page is a few
          // tens of KB of lock-light reads, far below an accept+handshake.
          serve_metrics().scrapes.inc();
          conn.frame_conn.enqueue(
              MsgType::kMetricsText,
              encode_metrics_text({decode_u64(frame.payload),
                                   telemetry::render_prometheus()}));
          break;
        case MsgType::kStoreSubscribe: {
          // Runs on the loop thread; pushes arrive later from appending
          // threads and travel through the completion queue like streamed
          // results. No ack and never an Error: a subscriber treats silence
          // as "no live stream" and keeps working off its own store. A
          // repeat subscribe (the client switched alphabets) replaces the
          // old one.
          const StoreSubscribeMsg sub = decode_store_subscribe(frame.payload);
          if (service.on_store_subscribe) {
            if (conn.store_unsubscribe) {
              conn.store_unsubscribe();
              conn.store_unsubscribe = nullptr;
            }
            conn.store_unsubscribe = service.on_store_subscribe(
                sub.registry,
                [this, gone = conn.gone, conn_id = conn.id](
                    std::vector<std::uint8_t> frame_bytes) {
                  if (gone->load(std::memory_order_acquire)) return false;
                  if (stats_) {
                    stats_->store_appends_streamed.fetch_add(
                        1, std::memory_order_relaxed);
                  }
                  post(conn_id, std::move(frame_bytes));
                  return true;
                });
          }
          break;
        }
        case MsgType::kShutdown:
          util::log_info("evald: shutdown requested");
          if (listener_ && !stop_accepting_) poller_.del(listener_->fd());
          stop_accepting_ = true;
          return false;
        default:
          enqueue_error(conn, 0, "unexpected message type");
          break;
      }
    } catch (const std::exception& e) {
      // Bad payloads / rejected hellos / rejected designs: report on the
      // wire and keep the connection.
      enqueue_error(conn, 0, e.what());
    }
    return true;
  }

  void submit_eval(Conn& conn, EvalRequestMsg req) {
    if (stats_) {
      stats_->requests.fetch_add(1, std::memory_order_relaxed);
      stats_->flows_received.fetch_add(req.flows.size(),
                                       std::memory_order_relaxed);
    }
    ++conn.evals_pending;
    serve_metrics().eval_queue_depth.add(1.0);
    auto task = [this, service = conn.service, gone = conn.gone,
                 conn_id = conn.id, req = std::move(req)]() mutable {
      run_eval(*service, *gone, conn_id, std::move(req));
    };
    {
      std::lock_guard lock(mu_);
      tasks_.push_back(std::move(task));
    }
    tasks_cv_.notify_one();
  }

  /// Executor-side: evaluate one request and post its answer frames.
  void run_eval(const EvalService& service, const std::atomic<bool>& gone,
                std::uint64_t conn_id, EvalRequestMsg req) {
    telemetry::Span span("serve", "run_eval");
    span.arg("request_id", req.request_id);
    span.arg("flows", static_cast<std::uint64_t>(req.flows.size()));
    std::vector<core::Flow> flows;
    flows.reserve(req.flows.size());
    for (core::StepsKey& steps : req.flows) {
      flows.push_back(core::Flow{std::move(steps)});
    }
    // Watchdog: a hung transform turns into a typed Error frame while the
    // evaluation is still running — the executor slot stays busy until the
    // transform returns, but the client requeues immediately instead of
    // timing the whole worker out. post() is thread-safe, so the expire
    // closure needs no extra guarding.
    EvalWatchdog watchdog(
        service.eval_budget_ms, [this, conn_id, id = req.request_id] {
          post(conn_id, encode_frame(MsgType::kError,
                                     encode_error({id, kBudgetExceededMsg})));
          if (stats_) stats_->errors.fetch_add(1, std::memory_order_relaxed);
        });
    // One EvalResult per flow as it completes, then ShardDone with the
    // emitted count and a CRC-32 chained over the 32-byte QoR records in
    // emission order. Once the budget is blown the watchdog has answered,
    // so every later frame would be stale.
    std::uint32_t count = 0;
    std::uint32_t crc = 0;
    const auto emit = [&](std::uint32_t index, const map::QoR& q) {
      if (!gone.load(std::memory_order_acquire) && !watchdog.expired()) {
        post(conn_id,
             encode_frame(MsgType::kEvalResult,
                          encode_eval_result({req.request_id, index, q})));
        if (stats_) {
          stats_->results_streamed.fetch_add(1, std::memory_order_relaxed);
        }
      }
      crc = util::crc32(qor_record_bytes(q), crc);
      ++count;
    };
    try {
      service.on_eval(req.design, req.registry, std::move(flows), emit);
      if (!watchdog.expired()) {
        post(conn_id,
             encode_frame(MsgType::kShardDone,
                          encode_shard_done({req.request_id, count, crc})));
      }
    } catch (const std::exception& e) {
      // Already-emitted results stand (they are correct and the client
      // applied them); the error closes the rest of the stream.
      if (!watchdog.expired()) {
        post(conn_id, encode_frame(MsgType::kError,
                                   encode_error({req.request_id, e.what()})));
        if (stats_) stats_->errors.fetch_add(1, std::memory_order_relaxed);
      }
    }
    post_task_done(conn_id);
  }

  void post(std::uint64_t conn_id, std::vector<std::uint8_t> frame_bytes) {
    {
      std::lock_guard lock(mu_);
      completions_.push_back(Completion{conn_id, std::move(frame_bytes),
                                        false});
    }
    wake_.notify();
  }

  void post_task_done(std::uint64_t conn_id) {
    {
      std::lock_guard lock(mu_);
      completions_.push_back(Completion{conn_id, {}, true});
    }
    wake_.notify();
  }

  void drain_completions() {
    std::deque<Completion> batch;
    {
      std::lock_guard lock(mu_);
      batch.swap(completions_);
    }
    for (Completion& c : batch) {
      // Depth counts submitted-but-unfinished tasks, so the task_done mark
      // decrements it even when its connection is already gone.
      if (c.task_done) serve_metrics().eval_queue_depth.sub(1.0);
      const auto it = conns_.find(c.conn_id);
      if (it == conns_.end()) continue;  // connection already dropped
      Conn& conn = *it->second;
      if (c.task_done) {
        if (conn.evals_pending > 0) --conn.evals_pending;
      } else if (conn.frame_conn.enqueue_bytes(std::move(c.frame_bytes)) ==
                 FrameConn::Io::kError) {
        drop_conn(c.conn_id, "write failed");
        continue;
      }
      update_interest(conn);
    }
  }

  void update_interest(Conn& conn) {
    poller_.mod(conn.frame_conn.fd(), true, conn.frame_conn.want_write(),
                conn.id);
  }

  void drop_conn(std::uint64_t id, const char* why) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) return;
    if (why != nullptr) util::log_info("evald: dropping connection: ", why);
    it->second->gone->store(true, std::memory_order_release);
    // Synchronous cancel (mu_ is not held here — the lock order is store
    // mutex -> mu_, and unsubscribe takes the store mutex): after this no
    // listener will post() for the dying id.
    if (it->second->store_unsubscribe) it->second->store_unsubscribe();
    poller_.del(it->second->frame_conn.fd());
    conns_.erase(it);
    if (stats_) {
      stats_->connections_open.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  void executor_main() {
    while (true) {
      std::function<void()> task;
      {
        std::unique_lock lock(mu_);
        tasks_cv_.wait(lock,
                       [this] { return executors_stop_ || !tasks_.empty(); });
        if (tasks_.empty()) return;  // stopping and drained
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
      task();
    }
  }

  Listener* listener_;  ///< null: serve adopted connections only
  std::function<EvalService()> make_service_;
  ServeStats* stats_;

  Poller poller_;
  WakePipe wake_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::uint64_t next_conn_id_ = kFirstConnId;
  bool stop_accepting_;

  std::mutex mu_;  ///< guards tasks_, completions_, executors_stop_
  std::condition_variable tasks_cv_;
  std::deque<std::function<void()>> tasks_;
  std::deque<Completion> completions_;
  bool executors_stop_ = false;
  std::vector<std::thread> executors_;

  void enqueue_error(Conn& conn, std::uint64_t request_id,
                     const std::string& message) {
    conn.frame_conn.enqueue(MsgType::kError,
                            encode_error({request_id, message}));
    if (stats_) stats_->errors.fetch_add(1, std::memory_order_relaxed);
  }
};

}  // namespace

void serve_connections(Listener& listener,
                       const std::function<EvalService()>& make_service,
                       const ServeOptions& options) {
  ServeLoop loop(&listener, make_service, options);
  loop.run();
}

EvalWorker::EvalWorker(WorkerOptions options) : options_(std::move(options)) {
  options_.max_designs = std::max<std::size_t>(1, options_.max_designs);
  const auto& registry = default_registry();
  registries_.emplace(registry->fingerprint(), registry);
  registries_.emplace(opt::paper_registry_fingerprint(),
                      opt::TransformRegistry::paper());
  // Open the default store now (no other thread exists yet): an unusable
  // --store directory should fail worker startup, not the first request.
  if (!options_.qor_store_dir.empty()) store_locked(registry);
  if (!options_.design_id.empty()) {
    std::lock_guard lock(mutex_);
    ensure_design_locked(options_.design_id, registry);
  }
  if (!options_.design_file.empty()) {
    aig::Aig design = aig::read_blif_file(options_.design_file);
    std::lock_guard lock(mutex_);
    adopt_locked(std::move(design), "", registry);
  }
  if (options_.threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(options_.threads);
  }
}

const std::shared_ptr<const opt::TransformRegistry>&
EvalWorker::default_registry() const {
  return options_.evaluator.registry ? options_.evaluator.registry
                                     : opt::TransformRegistry::paper();
}

std::shared_ptr<const opt::TransformRegistry>
EvalWorker::find_registry_locked(const opt::RegistryFingerprint& fp) const {
  const auto it = registries_.find(fp);
  return it == registries_.end() ? nullptr : it->second;
}

opt::RegistryFingerprint EvalWorker::load_registry(
    std::shared_ptr<const opt::TransformRegistry> registry) {
  const opt::RegistryFingerprint fp = registry->fingerprint();
  std::lock_guard lock(mutex_);
  registries_.emplace(fp, std::move(registry));
  return fp;
}

std::shared_ptr<core::QorStore> EvalWorker::store_locked(
    const std::shared_ptr<const opt::TransformRegistry>& registry) {
  if (options_.qor_store_dir.empty()) return nullptr;
  const opt::RegistryFingerprint fp = registry->fingerprint();
  if (const auto it = stores_.find(fp); it != stores_.end()) {
    return it->second;
  }
  // One directory per alphabet: the configured root for the paper registry
  // (pre-registry stores keep working in place), reg-<fp> below it for any
  // other — QorStore itself refuses mixed-alphabet directories.
  core::QorStoreConfig config;
  config.dir = registry->is_paper()
                   ? options_.qor_store_dir
                   : options_.qor_store_dir + "/reg-" +
                         opt::registry_fingerprint_hex(fp).substr(0, 16);
  config.registry = registry;
  auto store = std::make_shared<core::QorStore>(std::move(config));
  stores_.emplace(fp, store);
  return store;
}

std::shared_ptr<core::SynthesisEvaluator> EvalWorker::find(
    const aig::Fingerprint& fp, const opt::RegistryFingerprint& registry) {
  std::lock_guard lock(mutex_);
  for (auto it = designs_.begin(); it != designs_.end(); ++it) {
    if (it->fp == fp && it->registry == registry) {
      designs_.splice(designs_.begin(), designs_, it);
      return designs_.front().evaluator;
    }
  }
  return nullptr;
}

EvalWorker::DesignEntry& EvalWorker::adopt_locked(
    aig::Aig design, std::string design_id,
    std::shared_ptr<const opt::TransformRegistry> registry) {
  DesignEntry entry;
  entry.fp = design.fingerprint();
  entry.registry = registry->fingerprint();
  entry.design_id = std::move(design_id);
  core::EvaluatorConfig config = options_.evaluator;
  config.registry = registry;
  entry.evaluator = std::make_shared<core::SynthesisEvaluator>(
      std::move(design), map::CellLibrary::builtin(), map::MapperParams{},
      config);
  if (const auto store = store_locked(registry)) {
    entry.evaluator->attach_store(store);
  }
  designs_.push_front(std::move(entry));
  while (designs_.size() > options_.max_designs) {
    util::log_info("evald worker: evicting design ",
                   designs_.back().design_id.empty()
                       ? aig::fingerprint_hex(designs_.back().fp)
                       : designs_.back().design_id);
    designs_.pop_back();
  }
  return designs_.front();
}

EvalWorker::DesignEntry& EvalWorker::ensure_design_locked(
    const std::string& design_id,
    std::shared_ptr<const opt::TransformRegistry> registry) {
  for (auto it = designs_.begin(); it != designs_.end(); ++it) {
    if (it->design_id == design_id &&
        it->registry == registry->fingerprint()) {
      designs_.splice(designs_.begin(), designs_, it);
      return designs_.front();
    }
  }
  // make_design throws std::invalid_argument for unknown ids; the serve
  // loop answers that with an Error frame.
  aig::Aig design = designs::make_design(design_id);
  return adopt_locked(std::move(design), design_id, std::move(registry));
}

aig::Fingerprint EvalWorker::load_design(
    aig::Aig design, std::shared_ptr<const opt::TransformRegistry> registry) {
  const aig::Fingerprint fp = design.fingerprint();
  const opt::RegistryFingerprint reg = registry->fingerprint();
  if (find(fp, reg)) return fp;  // already instantiated, caches intact
  std::lock_guard lock(mutex_);
  // Two clients can race the same netlist here; re-check under the lock so
  // the second shares the first's evaluator instead of replacing it.
  for (const DesignEntry& e : designs_) {
    if (e.fp == fp && e.registry == reg) return fp;
  }
  adopt_locked(std::move(design), "", std::move(registry));
  return fp;
}

std::shared_ptr<core::SynthesisEvaluator> EvalWorker::evaluator_for(
    const aig::Fingerprint& fp, const opt::RegistryFingerprint& registry) {
  if (auto evaluator = find(fp, registry)) return evaluator;
  // Pair miss. The design may be instantiated under another alphabet (the
  // graph is inside that evaluator) and the registry may have arrived via
  // LoadRegistry — then a fresh evaluator for the pair is one copy away.
  std::lock_guard lock(mutex_);
  for (auto it = designs_.begin(); it != designs_.end(); ++it) {
    if (it->fp == fp && it->registry == registry) {  // raced another client
      designs_.splice(designs_.begin(), designs_, it);
      return designs_.front().evaluator;
    }
  }
  std::shared_ptr<const opt::TransformRegistry> reg =
      find_registry_locked(registry);
  if (!reg) {
    throw opt::RegistryError("registry " +
                             opt::registry_fingerprint_hex(registry) +
                             " not loaded on this worker");
  }
  for (const DesignEntry& e : designs_) {
    if (e.fp == fp) {
      aig::Aig design = e.evaluator->design();  // copy under the lock
      return adopt_locked(std::move(design), e.design_id, std::move(reg))
          .evaluator;
    }
  }
  throw std::runtime_error("design " + aig::fingerprint_hex(fp) +
                           " not loaded on this worker");
}

HelloAckMsg EvalWorker::ack_front_locked() const {
  HelloAckMsg ack;
  if (const DesignEntry* front =
          designs_.empty() ? nullptr : &designs_.front()) {
    ack.design_id = front->design_id;
    ack.fingerprint = front->fp;
  }
  return ack;
}

EvalService EvalWorker::make_service() {
  // Per-connection alphabet: the one the client announced (Hello) or
  // shipped (LoadRegistry) most recently, so a shipped netlist is
  // instantiated under the registry the client will actually request with
  // — not the worker default, which would burn an LRU slot on an
  // evaluator nobody uses. A connection is served by one thread, so plain
  // shared state needs no lock.
  auto conn_registry = std::make_shared<
      std::shared_ptr<const opt::TransformRegistry>>(default_registry());
  EvalService service;
  service.on_hello = [this, conn_registry](const HelloMsg& hello) {
    std::lock_guard lock(mutex_);
    // Serve the client's alphabet when we have it; otherwise ack our
    // default so the client knows to ship a LoadRegistry.
    std::shared_ptr<const opt::TransformRegistry> registry =
        find_registry_locked(hello.registry);
    if (!registry) registry = default_registry();
    *conn_registry = registry;
    if (!hello.design_id.empty()) {
      ensure_design_locked(hello.design_id, registry);
    }
    HelloAckMsg ack = ack_front_locked();
    ack.registry = registry->fingerprint();
    return ack;
  };
  service.on_load_design = [this, conn_registry](
                               aig::Aig design,
                               std::span<const std::uint8_t>) {
    return load_design(std::move(design), *conn_registry);
  };
  service.on_load_registry =
      [this, conn_registry](
          std::shared_ptr<const opt::TransformRegistry> registry,
          std::span<const std::uint8_t>) {
        *conn_registry = registry;
        return load_registry(std::move(registry));
      };
  service.eval_budget_ms = options_.eval_budget_ms;
  service.on_eval =
      [this](const aig::Fingerprint& fp,
             const opt::RegistryFingerprint& registry,
             std::vector<core::Flow> flows,
             const std::function<void(std::uint32_t, const map::QoR&)>&
                 emit) {
        // Chaos hooks: "worker.eval.pre" fires once per request,
        // "worker.eval.flow" is keyed by the hex of a flow's step bytes so
        // a *specific* flow can be made poisonous (crash/delay/error
        // follows it to whichever worker it is requeued on). Both compile
        // out under -DFLOWGEN_FAILPOINTS=OFF and cost one relaxed load when
        // idle.
        FLOWGEN_FAILPOINT("worker.eval.pre");
        for (const core::Flow& f : flows) {
          FLOWGEN_FAILPOINT_KEYED(
              "worker.eval.flow",
              util::failpoint::key_hex(f.steps.data(),
                                       f.steps.size() * sizeof(opt::StepId)));
        }
        // Evaluate outside the designs lock: evaluators are thread-safe, so
        // concurrent requests on the same design share its warm caches.
        const std::shared_ptr<core::SynthesisEvaluator> evaluator =
            evaluator_for(fp, registry);
        // Evaluate in chunks of `threads` flows so the pool stays busy yet
        // every completed flow leaves as its own EvalResult frame — the
        // coordinator applies (and persists) it immediately, and a crash
        // between chunks forfeits at most one chunk. The request arrives
        // pre-sorted (coordinator shards are lexicographic runs), so
        // chunking keeps the prefix cache exactly as warm as one big
        // evaluate_many would.
        const std::size_t chunk = std::max<std::size_t>(1, options_.threads);
        std::size_t base = 0;
        while (base < flows.size()) {
          const std::size_t n = std::min(chunk, flows.size() - base);
          const std::span<const core::Flow> slice(flows.data() + base, n);
          const std::vector<map::QoR> qors =
              evaluator->evaluate_many(slice, pool_.get());
          for (std::size_t k = 0; k < n; ++k) {
            emit(static_cast<std::uint32_t>(base + k), qors[k]);
          }
          base += n;
        }
      };
  service.on_store_subscribe =
      [this](const opt::RegistryFingerprint& fp,
             std::function<bool(std::vector<std::uint8_t>)> push)
      -> std::function<void()> {
    std::shared_ptr<core::QorStore> store;
    try {
      std::lock_guard lock(mutex_);
      if (const auto registry = find_registry_locked(fp)) {
        store = store_locked(registry);
      }
    } catch (const std::exception& e) {
      util::log_warn("evald worker: store subscription refused: ", e.what());
    }
    // Unknown alphabet, no store configured, or an unusable store
    // directory: the subscription is a silent no-op, never an error — the
    // subscriber just keeps working without a live stream.
    if (!store) return [] {};
    const std::uint64_t token = store->subscribe(
        [fp, push = std::move(push)](const aig::Fingerprint& design,
                                     core::StepsView steps,
                                     const map::QoR& qor) {
          StoreAppendMsg msg;
          msg.registry = fp;
          msg.design = design;
          msg.steps.assign(steps.begin(), steps.end());
          msg.qor = qor;
          return push(
              encode_frame(MsgType::kStoreAppend, encode_store_append(msg)));
        });
    return [store, token] { store->unsubscribe(token); };
  };
  return service;
}

void EvalWorker::serve(Socket& sock) {
  ServeLoop loop(nullptr, [this] { return make_service(); },
                 {options_.serve_threads, &serve_stats_});
  loop.adopt(std::move(sock));
  loop.run();
}

void apply_worker_rlimits(const WorkerOptions& options) {
  const auto apply = [](int resource, const char* name, rlim_t limit) {
    rlimit rl{};
    rl.rlim_cur = limit;
    rl.rlim_max = limit;
    if (::setrlimit(resource, &rl) != 0) {
      // Best effort: an already-lower hard limit or an unprivileged raise
      // attempt should not kill a worker that would otherwise serve fine.
      util::log_warn("evald worker: setrlimit(", name,
                     ") failed: ", std::strerror(errno));
    } else {
      util::log_info("evald worker: ", name, " capped at ",
                     static_cast<unsigned long long>(limit));
    }
  };
  if (options.rlimit_as_mb > 0) {
    apply(RLIMIT_AS, "RLIMIT_AS",
          static_cast<rlim_t>(options.rlimit_as_mb) * 1024 * 1024);
  }
  if (options.rlimit_cpu_s > 0) {
    apply(RLIMIT_CPU, "RLIMIT_CPU",
          static_cast<rlim_t>(options.rlimit_cpu_s));
  }
}

std::string worker_admin_text(const EvalWorker& worker,
                              const std::string& command) {
  if (command == "stats") {
    const ServeStats& s = worker.serve_stats();
    std::ostringstream os;
    os << "connections_total " << s.connections_total.load() << '\n'
       << "connections_open " << s.connections_open.load() << '\n'
       << "requests " << s.requests.load() << '\n'
       << "flows_received " << s.flows_received.load() << '\n'
       << "results_streamed " << s.results_streamed.load() << '\n'
       << "errors " << s.errors.load() << '\n'
       << "store_appends_streamed " << s.store_appends_streamed.load() << '\n'
       << "designs_loaded " << worker.num_designs() << '\n';
    return os.str();
  }
  if (command == "store") {
    const auto stores = worker.open_stores();
    if (stores.empty()) return "no store configured";
    std::ostringstream os;
    for (const auto& store : stores) {
      const core::QorStoreStats st = store->stats();
      os << "registry "
         << opt::registry_fingerprint_hex(store->registry_fingerprint())
         << " records " << store->size() << " epoch " << store->epoch()
         << " appends " << st.appends << " ingests " << st.ingests
         << " compactions " << st.compactions << '\n';
    }
    return os.str();
  }
  if (command == "compact") {
    const auto stores = worker.open_stores();
    if (stores.empty()) return "no store configured";
    std::ostringstream os;
    for (const auto& store : stores) {
      os << opt::registry_fingerprint_hex(store->registry_fingerprint());
      try {
        const auto r = store->compact();
        if (r.performed) {
          os << " compacted epoch=" << r.epoch << " records=" << r.records
             << " logs_folded=" << r.logs_folded << '\n';
        } else {
          os << " skipped (lock busy or store empty)\n";
        }
      } catch (const std::exception& e) {
        os << " err " << e.what() << '\n';
      }
    }
    return os.str();
  }
  // Local scrape surface: evalctl reads a single worker here without going
  // through a coordinator; the fleet view is the server's "metrics".
  if (command == "metrics") return telemetry::render_prometheus();
  if (command == "failpoints") return util::failpoint::describe();
  if (command.rfind("failpoint ", 0) == 0) {
    const std::string rest = command.substr(10);
    const std::size_t sp = rest.find(' ');
    if (sp == std::string::npos) return "err usage: failpoint <name> <spec>";
    const std::string name = rest.substr(0, sp);
    const std::string spec = rest.substr(sp + 1);
    try {
      util::failpoint::configure(name, spec);
    } catch (const std::exception& e) {
      return std::string("err ") + e.what();
    }
    return "ok " + name + " = " + spec;
  }
  if (command == "help") {
    return "commands: stats store compact metrics failpoints failpoint help "
           "quit";
  }
  return "err unknown command '" + command + "' (try help)";
}

void EvalWorker::serve_forever(Listener& listener) {
  serve_connections(listener, [this] { return make_service(); },
                    {options_.serve_threads, &serve_stats_});
}

EvalService make_coordinator_service(EvalCoordinator& coordinator) {
  EvalService svc;
  svc.on_hello = [&coordinator](const HelloMsg& hello) {
    auto [id, fp] = coordinator.design_identity();
    if (!hello.design_id.empty() && hello.design_id != id) {
      // Unknown ids throw std::invalid_argument -> an Error frame. The
      // broadcast is labeled with the *requested* id (not the netlist's
      // own name) so the ack satisfies registry-mode clients, which
      // require the acked id to equal what they asked for.
      const aig::Aig design = designs::make_design(hello.design_id);
      coordinator.load_design(aig::encode_binary(design),
                              design.fingerprint(), hello.design_id);
      std::tie(id, fp) = coordinator.design_identity();
    }
    // The ack is a consistent (id, fp) snapshot: if another client swapped
    // the design in between, the client sees a coherent *different* design
    // and rejects the handshake loudly instead of mislabeling silently.
    // The registry field works like the worker's: echo the client's
    // alphabet iff the fleet already serves it, otherwise answer with the
    // fleet's current one — the client then ships a LoadRegistry, which is
    // re-broadcast below.
    HelloAckMsg ack;
    ack.design_id = std::move(id);
    ack.fingerprint = fp;
    ack.registry = coordinator.registry_fingerprint();
    return ack;
  };
  svc.on_load_design = [&coordinator](aig::Aig design,
                                      std::span<const std::uint8_t> blob) {
    const aig::Fingerprint fp = design.fingerprint();
    if (fp != coordinator.design_fingerprint()) {
      coordinator.load_design(blob, fp, std::move(design.name));
    }
    return fp;
  };
  svc.on_load_registry =
      [&coordinator](std::shared_ptr<const opt::TransformRegistry> registry,
                     std::span<const std::uint8_t> blob) {
        const opt::RegistryFingerprint fp = registry->fingerprint();
        if (fp != coordinator.registry_fingerprint()) {
          coordinator.load_registry(std::move(registry), blob);
        }
        return fp;
      };
  svc.on_eval =
      [&coordinator](const aig::Fingerprint& fp,
                     const opt::RegistryFingerprint& registry,
                     std::vector<core::Flow> flows,
                     const std::function<void(std::uint32_t, const map::QoR&)>&
                         emit) {
        // The fingerprint check and the batch submission are atomic inside
        // the coordinator — a plain check-then-evaluate would race a
        // concurrent client's load_design/load_registry. Fleets compose
        // under streaming: results land from the coordinator's event loop
        // as its workers stream them, and every one is forwarded upward
        // immediately (the emit is thread-safe — it posts to the serve
        // loop's completion queue).
        coordinator.evaluate_many_for(
            fp, registry, flows,
            [&emit](std::size_t index, const map::QoR& q) {
              emit(static_cast<std::uint32_t>(index), q);
            });
      };
  return svc;
}

}  // namespace flowgen::service
