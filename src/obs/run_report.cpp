#include "obs/run_report.hpp"

#include "obs/json_writer.hpp"

namespace starlab::obs {

StageStat& RunReport::stage(std::string_view name) {
  for (StageStat& s : stages) {
    if (s.name == name) return s;
  }
  StageStat& s = stages.emplace_back();
  s.name = name;
  return s;
}

void RunReport::add_value(std::string name, double value) {
  for (auto& [n, v] : values) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values.emplace_back(std::move(name), value);
}

double RunReport::value_or(std::string_view name, double fallback) const {
  for (const auto& [n, v] : values) {
    if (n == name) return v;
  }
  return fallback;
}

void RunReport::bump(
    std::vector<std::pair<std::string, std::uint64_t>>& counts,
    std::string_view name, std::uint64_t by) {
  for (auto& [n, c] : counts) {
    if (n == name) {
      c += by;
      return;
    }
  }
  counts.emplace_back(std::string(name), by);
}

void RunReport::absorb(const RunReport& other) {
  wall_ns += other.wall_ns;
  for (const StageStat& s : other.stages) {
    StageStat& mine = stage(s.name);
    mine.wall_ns += s.wall_ns;
    mine.calls += s.calls;
  }
  slots += other.slots;
  decided += other.decided;
  abstained += other.abstained;
  degraded += other.degraded;
  compared += other.compared;
  correct += other.correct;
  accuracy = compared == 0 ? 0.0
                           : static_cast<double>(correct) /
                                 static_cast<double>(compared);
  for (const auto& [n, c] : other.quality) bump(quality, n, c);
  for (const auto& [n, c] : other.abstain_reasons) bump(abstain_reasons, n, c);
  for (const auto& [n, v] : other.values) add_value(n, value_or(n, 0.0) + v);
  events.insert(events.end(), other.events.begin(), other.events.end());
  if (fault_plan.empty()) fault_plan = other.fault_plan;
}

std::string RunReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("kind");
  w.value(kind);
  w.key("label");
  w.value(label);
  w.key("git_sha");
  w.value(git_sha);
  w.key("wall_ns");
  w.value(wall_ns);
  w.key("stages");
  w.begin_array();
  for (const StageStat& s : stages) {
    w.begin_object();
    w.key("name");
    w.value(s.name);
    w.key("wall_ns");
    w.value(s.wall_ns);
    w.key("calls");
    w.value(s.calls);
    w.end_object();
  }
  w.end_array();
  w.key("slots");
  w.value(slots);
  w.key("decided");
  w.value(decided);
  w.key("abstained");
  w.value(abstained);
  w.key("degraded");
  w.value(degraded);
  w.key("compared");
  w.value(compared);
  w.key("correct");
  w.value(correct);
  w.key("accuracy");
  w.value(accuracy);
  w.key("quality");
  w.begin_object();
  for (const auto& [n, c] : quality) {
    w.key(n);
    w.value(c);
  }
  w.end_object();
  w.key("abstain_reasons");
  w.begin_object();
  for (const auto& [n, c] : abstain_reasons) {
    w.key(n);
    w.value(c);
  }
  w.end_object();
  w.key("fault_plan");
  w.value(fault_plan);
  if (!events.empty()) {
    w.key("events");
    w.begin_array();
    for (const std::string& e : events) w.value(e);
    w.end_array();
  }
  w.key("values");
  w.begin_object();
  for (const auto& [n, v] : values) {
    w.key(n);
    w.value(v);
  }
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

}  // namespace starlab::obs
