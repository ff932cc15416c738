#include "util/failpoint.hpp"

#include <pthread.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>

namespace flowgen::util::failpoint {
namespace {

enum class Action { kError, kCrash, kDelay };

struct Spec {
  Action action = Action::kError;
  std::uint64_t one_in = 1;  ///< fire on every Nth matching hit
  int delay_ms = 0;
  std::string message;  ///< error action; empty = default text
  std::string key;      ///< empty = match every hit
};

struct Point {
  Spec spec;
  std::uint64_t hits = 0;     ///< site executions while armed
  std::uint64_t matched = 0;  ///< hits that passed the key filter
  std::uint64_t fires = 0;    ///< actions actually taken
};

// The armed count has constant initialization, so the macro's fast path is
// safe from any static initializer; the registry is a Meyers singleton for
// the same reason.
std::atomic<std::size_t> g_armed{0};

struct Registry {
  std::mutex mu;
  std::map<std::string, Point> points;
};

Registry& registry() {
  static Registry r;
  // While any point is armed every site takes r.mu, so a fork() racing
  // another thread's site (a respawned loopback worker beside the
  // coordinator's event loop reading a socket) would hand the child a
  // locked mutex. Holding it across fork() hands the child an unlocked
  // copy.
  static const int atfork_registered = ::pthread_atfork(
      [] { registry().mu.lock(); }, [] { registry().mu.unlock(); },
      [] { registry().mu.unlock(); });
  (void)atfork_registered;
  return r;
}

std::string normalize(const Spec& s) {
  std::string out;
  if (s.one_in > 1) out += "1in" + std::to_string(s.one_in) + "*";
  switch (s.action) {
    case Action::kError:
      out += "error";
      if (!s.message.empty()) out += "(" + s.message + ")";
      break;
    case Action::kCrash:
      out += "crash";
      break;
    case Action::kDelay:
      out += "delay(" + std::to_string(s.delay_ms) + ")";
      break;
  }
  if (!s.key.empty()) out += "@key=" + s.key;
  return out;
}

[[noreturn]] void bad_spec(const std::string& spec, const char* why) {
  throw std::invalid_argument("failpoint spec '" + spec + "': " + why);
}

/// Parse "[1in<N>*]<action>[(arg)][@key=<text>]". Returns false for "off".
bool parse_spec(const std::string& raw, Spec* out) {
  std::string s = raw;
  if (const auto at = s.find("@key="); at != std::string::npos) {
    out->key = s.substr(at + 5);
    if (out->key.empty()) bad_spec(raw, "empty @key=");
    s.erase(at);
  }
  if (s.rfind("1in", 0) == 0) {
    const auto star = s.find('*');
    if (star == std::string::npos) bad_spec(raw, "1in<N> needs '*action'");
    char* end = nullptr;
    const unsigned long long n = std::strtoull(s.c_str() + 3, &end, 10);
    if (n == 0 || end != s.c_str() + star) bad_spec(raw, "bad 1in<N> count");
    out->one_in = n;
    s.erase(0, star + 1);
  }
  std::string arg;
  if (const auto paren = s.find('('); paren != std::string::npos) {
    if (s.back() != ')') bad_spec(raw, "unterminated '('");
    arg = s.substr(paren + 1, s.size() - paren - 2);
    s.erase(paren);
  }
  if (s == "off") {
    if (!arg.empty()) bad_spec(raw, "off takes no argument");
    return false;
  }
  if (s == "error") {
    out->action = Action::kError;
    out->message = arg;
  } else if (s == "crash") {
    if (!arg.empty()) bad_spec(raw, "crash takes no argument");
    out->action = Action::kCrash;
  } else if (s == "delay") {
    char* end = nullptr;
    const long ms = std::strtol(arg.c_str(), &end, 10);
    if (arg.empty() || *end != '\0' || ms < 0)
      bad_spec(raw, "delay needs (ms)");
    out->action = Action::kDelay;
    out->delay_ms = static_cast<int>(ms);
  } else {
    bad_spec(raw, "unknown action (want off|error|crash|delay)");
  }
  return true;
}

/// Decide under the lock, act outside it (actions sleep or throw).
struct Decision {
  bool fire = false;
  Action action = Action::kError;
  int delay_ms = 0;
  std::string what;
};

Decision decide(const char* name, const std::string_view* key) {
  Registry& r = registry();
  Decision d;
  std::lock_guard lock(r.mu);
  const auto it = r.points.find(name);
  if (it == r.points.end()) return d;
  Point& p = it->second;
  ++p.hits;
  if (!p.spec.key.empty() && (key == nullptr || *key != p.spec.key)) return d;
  ++p.matched;
  if (p.matched % p.spec.one_in != 0) return d;
  ++p.fires;
  d.fire = true;
  d.action = p.spec.action;
  d.delay_ms = p.spec.delay_ms;
  if (p.spec.action == Action::kError) {
    d.what = p.spec.message.empty()
                 ? "failpoint '" + std::string(name) + "': injected error"
                 : p.spec.message;
  }
  return d;
}

void act(const Decision& d) {
  switch (d.action) {
    case Action::kError:
      throw FailpointError(d.what);
    case Action::kCrash:
      // The same un-catchable death a kernel OOM kill or operator SIGKILL
      // delivers; _exit is unreachable but keeps the path [[noreturn]]-safe
      // if the signal is somehow blocked.
      ::kill(::getpid(), SIGKILL);
      ::_exit(137);
    case Action::kDelay:
      std::this_thread::sleep_for(std::chrono::milliseconds(d.delay_ms));
      break;
  }
}

// Applies $FLOWGEN_FAILPOINTS before main() so forked workers inherit the
// parent's armed points and daemons pick them up from their environment.
const std::size_t g_env_applied = configure_from_env();

}  // namespace

bool any_armed() noexcept {
  return g_armed.load(std::memory_order_relaxed) != 0;
}

void hit(const char* name) {
  const Decision d = decide(name, nullptr);
  if (d.fire) act(d);
}

void hit_keyed(const char* name, std::string_view key) {
  const Decision d = decide(name, &key);
  if (d.fire) act(d);
}

void configure(const std::string& name, const std::string& spec) {
  if (name.empty()) throw std::invalid_argument("failpoint: empty name");
  Spec parsed;
  if (!parse_spec(spec, &parsed)) {
    clear(name);
    return;
  }
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  auto [it, inserted] = r.points.try_emplace(name);
  it->second.spec = std::move(parsed);
  if (inserted) g_armed.fetch_add(1, std::memory_order_relaxed);
}

std::size_t configure_from_spec(const std::string& multi) {
  std::size_t armed = 0;
  std::size_t start = 0;
  while (start <= multi.size()) {
    std::size_t end = multi.find(';', start);
    if (end == std::string::npos) end = multi.size();
    const std::string entry = multi.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) continue;
    const auto eq = entry.find('=');
    if (eq == std::string::npos || eq == 0)
      throw std::invalid_argument("failpoint entry '" + entry +
                                  "': want name=spec");
    configure(entry.substr(0, eq), entry.substr(eq + 1));
    ++armed;
  }
  return armed;
}

std::size_t configure_from_env() {
  const char* env = std::getenv("FLOWGEN_FAILPOINTS");
  if (env == nullptr || *env == '\0') return 0;
  try {
    return configure_from_spec(env);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flowgen: ignoring FLOWGEN_FAILPOINTS: %s\n",
                 e.what());
    return 0;
  }
}

void clear(const std::string& name) {
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  if (r.points.erase(name) != 0)
    g_armed.fetch_sub(1, std::memory_order_relaxed);
}

void clear_all() {
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  g_armed.fetch_sub(r.points.size(), std::memory_order_relaxed);
  r.points.clear();
}

std::vector<Info> list() {
  Registry& r = registry();
  std::vector<Info> out;
  std::lock_guard lock(r.mu);
  out.reserve(r.points.size());
  for (const auto& [name, p] : r.points)
    out.push_back({name, normalize(p.spec), p.hits, p.fires});
  return out;
}

std::string describe() {
  const std::vector<Info> points = list();
  if (points.empty()) return "none armed";
  std::string out;
  for (const Info& p : points) {
    out += p.name + " = " + p.spec + "  hits=" + std::to_string(p.hits) +
           " fires=" + std::to_string(p.fires) + "\n";
  }
  out.pop_back();
  return out;
}

std::string key_hex(const void* data, std::size_t len) {
  static const char* kDigits = "0123456789abcdef";
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::string out;
  out.reserve(len * 2);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(kDigits[bytes[i] >> 4]);
    out.push_back(kDigits[bytes[i] & 0xf]);
  }
  return out;
}

}  // namespace flowgen::util::failpoint
