#include "util/log.hpp"

#include <pthread.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace flowgen::util {

namespace {

std::atomic<LogLevel> g_level{LogLevel::kInfo};
std::once_flag g_env_once;

void init_from_env() {
  const char* env = std::getenv("FLOWGEN_LOG");
  if (!env) return;
  if (!std::strcmp(env, "debug")) g_level = LogLevel::kDebug;
  else if (!std::strcmp(env, "info")) g_level = LogLevel::kInfo;
  else if (!std::strcmp(env, "warn")) g_level = LogLevel::kWarn;
  else if (!std::strcmp(env, "error")) g_level = LogLevel::kError;
}

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}

double elapsed_seconds() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point start = clock::now();
  return std::chrono::duration<double>(clock::now() - start).count();
}

long current_tid() {
  // Kernel tid, not std::this_thread::get_id(): it matches what ps/gdb and
  // the Chrome-trace "tid" field show, so log lines and trace spans from
  // the same thread correlate directly. Cached per thread (one syscall).
  thread_local const long tid = ::syscall(SYS_gettid);
  return tid;
}

std::mutex g_io_mutex;

// fork() copies the mutex in whatever state another thread left it: a
// child forked while a sibling thread logs (LoopbackCluster::respawn_worker
// forks beside the coordinator's event loop, which logs the very worker
// loss being replaced) would inherit it locked and hang at its first log
// line. Holding it across fork() hands the child an unlocked copy.
const int g_atfork_registered = ::pthread_atfork(
    [] { g_io_mutex.lock(); }, [] { g_io_mutex.unlock(); },
    [] { g_io_mutex.unlock(); });

}  // namespace

LogLevel log_level() {
  std::call_once(g_env_once, init_from_env);
  return g_level.load();
}

void set_log_level(LogLevel level) { g_level = level; }

void log_message(LogLevel level, const std::string& message) {
  // Format into one buffer and write it with a single fwrite under the
  // mutex: concurrent loggers (serve executors, the reactor, the admin
  // thread) never interleave within a line even if stderr is a pipe whose
  // writes exceed PIPE_BUF.
  char prefix[64];
  std::snprintf(prefix, sizeof prefix, "[%9.3f] %s [t%ld] ",
                elapsed_seconds(), level_name(level), current_tid());
  std::string line;
  line.reserve(std::strlen(prefix) + message.size() + 1);
  line += prefix;
  line += message;
  line += '\n';
  std::lock_guard lock(g_io_mutex);
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace flowgen::util
