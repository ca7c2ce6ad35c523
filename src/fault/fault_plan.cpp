#include "fault/fault_plan.hpp"

#include <cmath>
#include <cstdio>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace starlab::fault {

namespace {

/// One schema entry: name plus accessor, shared by parse and format so the
/// two can never drift apart.
struct Field {
  const char* key;
  std::function<double&(FaultPlan&)> ref;
};

std::vector<Field> schema() {
  return {
      {"intensity", [](FaultPlan& p) -> double& { return p.intensity; }},
      {"frame.drop_rate",
       [](FaultPlan& p) -> double& { return p.frame.drop_rate; }},
      {"frame.bit_flip_rate",
       [](FaultPlan& p) -> double& { return p.frame.bit_flip_rate; }},
      {"rtt.extra_loss_rate",
       [](FaultPlan& p) -> double& { return p.rtt.extra_loss_rate; }},
      {"rtt.mean_burst_probes",
       [](FaultPlan& p) -> double& { return p.rtt.mean_burst_probes; }},
      {"rtt.spike_rate",
       [](FaultPlan& p) -> double& { return p.rtt.spike_rate; }},
      {"rtt.spike_ms", [](FaultPlan& p) -> double& { return p.rtt.spike_ms; }},
      {"clock.step_ms",
       [](FaultPlan& p) -> double& { return p.clock.step_ms; }},
      {"clock.step_interval_sec",
       [](FaultPlan& p) -> double& { return p.clock.step_interval_sec; }},
      {"clock.drift_ppm",
       [](FaultPlan& p) -> double& { return p.clock.drift_ppm; }},
      {"dropout.rate", [](FaultPlan& p) -> double& { return p.dropout.rate; }},
      {"exec.task_fail_rate",
       [](FaultPlan& p) -> double& { return p.exec.task_fail_rate; }},
  };
}

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

}  // namespace

bool FaultPlan::enabled() const {
  if (intensity <= 0.0) return false;
  return frame.drop_rate > 0.0 || frame.bit_flip_rate > 0.0 ||
         rtt.extra_loss_rate > 0.0 || rtt.spike_rate > 0.0 ||
         clock.step_ms > 0.0 || clock.drift_ppm > 0.0 ||
         dropout.rate > 0.0 || exec.task_fail_rate > 0.0;
}

FaultPlan FaultPlan::with_intensity(double value) const {
  FaultPlan out = *this;
  out.intensity = value;
  return out;
}

std::string format_fault_plan(const FaultPlan& plan) {
  const FaultPlan defaults;
  FaultPlan mutable_plan = plan;
  FaultPlan mutable_defaults = defaults;
  // Built without a stream: InferencePipeline::run formats its plan on
  // every run, outside its stage spans, and in a fresh process the first
  // std::ostringstream took about 0.15 ms (4-core dev container).
  std::string out;
  if (plan.seed != defaults.seed) {
    out += "seed = " + std::to_string(plan.seed) + '\n';
  }
  for (const Field& f : schema()) {
    const double value = f.ref(mutable_plan);
    if (value == f.ref(mutable_defaults)) continue;
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += std::string(f.key) + " = " + buf + '\n';
  }
  return out;
}

FaultPlan parse_fault_plan(const std::string& text) {
  FaultPlan plan;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string stripped = trim(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    const auto eq = stripped.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("fault plan line " + std::to_string(lineno) +
                               ": expected 'key = value', got '" + stripped +
                               "'");
    }
    const std::string key = trim(stripped.substr(0, eq));
    const std::string value = trim(stripped.substr(eq + 1));
    try {
      if (key == "seed") {
        plan.seed = static_cast<std::uint64_t>(std::stoull(value));
        continue;
      }
      bool matched = false;
      for (const Field& f : schema()) {
        if (key == f.key) {
          const double v = std::stod(value);
          if (!std::isfinite(v)) {
            throw std::runtime_error("fault plan line " +
                                     std::to_string(lineno) +
                                     ": non-finite value for '" + key + "'");
          }
          f.ref(plan) = v;
          matched = true;
          break;
        }
      }
      if (!matched) {
        throw std::runtime_error("fault plan line " + std::to_string(lineno) +
                                 ": unknown key '" + key + "'");
      }
    } catch (const std::invalid_argument&) {
      throw std::runtime_error("fault plan line " + std::to_string(lineno) +
                               ": bad value '" + value + "' for '" + key + "'");
    } catch (const std::out_of_range&) {
      throw std::runtime_error("fault plan line " + std::to_string(lineno) +
                               ": value out of range for '" + key + "'");
    }
  }
  return plan;
}

}  // namespace starlab::fault
