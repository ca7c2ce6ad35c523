#include "check/contracts.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <sstream>

#include "obs/metrics.hpp"

namespace starlab::check {

namespace {

std::atomic<Mode> g_mode{Mode::kAbort};
std::atomic<std::uint64_t> g_violations{0};
std::once_flag g_env_once;

void init_mode_from_env() {
  const char* env = std::getenv("STARLAB_CHECK_MODE");
  if (env == nullptr) return;
  if (std::strcmp(env, "throw") == 0) {
    g_mode.store(Mode::kThrow, std::memory_order_relaxed);
  } else if (std::strcmp(env, "log") == 0) {
    g_mode.store(Mode::kLog, std::memory_order_relaxed);
  } else if (std::strcmp(env, "abort") == 0) {
    g_mode.store(Mode::kAbort, std::memory_order_relaxed);
  }
  // Unknown values keep the abort default: a contract violation is a bug,
  // and a typo in an env var should not soften that.
}

std::string compose(const char* kind, const char* expr, const char* file,
                    int line, const std::string& detail) {
  std::ostringstream out;
  out << "STARLAB_" << kind << " failed at " << file << ':' << line << ": "
      << expr;
  if (!detail.empty()) out << " — " << detail;
  return out.str();
}

}  // namespace

Mode mode() {
  std::call_once(g_env_once, init_mode_from_env);
  return g_mode.load(std::memory_order_relaxed);
}

// starlint:allow(reachability): test seam; switches violations to log mode
void set_mode(Mode m) {
  std::call_once(g_env_once, init_mode_from_env);  // env never overrides later
  g_mode.store(m, std::memory_order_relaxed);
}

// starlint:allow(reachability): test seam; counts violations in log mode
std::uint64_t violation_count() {
  return g_violations.load(std::memory_order_relaxed);
}

void fail(const char* kind, const char* expr, const char* file, int line,
          const std::string& detail) {
  const std::string message = compose(kind, expr, file, line, detail);
  switch (mode()) {
    case Mode::kThrow:
      throw ContractViolation(message);
    case Mode::kLog: {
      g_violations.fetch_add(1, std::memory_order_relaxed);
      static const obs::Counter counter = obs::MetricsRegistry::instance().counter(
          "check_violations_total",
          "contract violations observed in log mode");
      counter.add();
      std::fprintf(stderr, "%s\n", message.c_str());
      return;
    }
    case Mode::kAbort:
      break;
  }
  std::fprintf(stderr, "%s\n", message.c_str());
  std::abort();
}

}  // namespace starlab::check
