#pragma once
// Loopback multi-worker mode: N real worker *processes* forked from the
// current one, each serving the wire protocol on its end of a socketpair
// through the same event-driven serve loop as `evald --mode worker`. This
// is the same code path as a remote evald fleet — frames, serve loop,
// coordinator scheduling, crash handling — minus the network, which makes
// it the substrate for the service tests (SIGKILL a child, watch the
// coordinator requeue) and for bench_service's scaling curves.
//
// Fork discipline: children are forked before the caller spawns any thread
// pools (construct clusters early), immediately close every parent-side fd
// they inherited, and leave via _exit so parent atexit state never runs
// twice. Each worker runs WorkerOptions::serve_threads executors (2 by
// default), so it evaluates that many of the coordinator's in-flight
// shards at once, each on WorkerOptions::threads (1 by default) pool
// threads.

#include <sys/types.h>

#include <cstddef>
#include <vector>

#include "service/coordinator.hpp"
#include "service/worker.hpp"

namespace flowgen::service {

class LoopbackCluster {
public:
  /// Fork `num_workers` children, each running an EvalWorker for
  /// `worker.design_id`. Throws ServiceError when fork fails.
  LoopbackCluster(std::size_t num_workers, WorkerOptions worker);

  /// SIGKILLs any child still running and reaps them all.
  ~LoopbackCluster();

  LoopbackCluster(const LoopbackCluster&) = delete;
  LoopbackCluster& operator=(const LoopbackCluster&) = delete;

  std::size_t size() const { return pids_.size(); }
  pid_t pid(std::size_t i) const { return pids_[i]; }

  /// Parent-side connections, one per child, for EvalCoordinator. Callable
  /// once — the sockets move out.
  std::vector<EvalCoordinator::Worker> take_workers();

  /// SIGKILL child `i` and reap it — the fault-injection hammer.
  void kill_worker(std::size_t i);

  /// Fork a fresh child in slot `i` (killing any incumbent first) with the
  /// same WorkerOptions, and return the parent-side connection under the
  /// slot's original "loopback-<i>" name — exactly what
  /// EvalCoordinator::admit_worker wants for a mid-run revival. Note the
  /// recovery caveat: unlike construction-time forks, a respawned child
  /// inherits whatever fds the parent holds by now (coordinator sockets,
  /// pollers), so sibling crash detection in long-lived respawn users
  /// falls back to deadlines instead of instant EOF.
  EvalCoordinator::Worker respawn_worker(std::size_t i);

private:
  std::vector<pid_t> pids_;
  std::vector<Socket> parent_side_;
  WorkerOptions worker_options_;
};

}  // namespace flowgen::service
