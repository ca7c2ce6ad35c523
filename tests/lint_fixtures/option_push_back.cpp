// Fixture: option-reachability. A mutating member call on a member,
// `cfg.terminals.push_back(...)`, writes it; `Scenario::sites` is only
// read through a const accessor and is a finding.
// === src/core/scenario.hpp
#include <vector>
namespace fix {
struct Scenario {
  std::vector<int> terminals;
  std::vector<int> sites;
};
int count(const Scenario& s) {
  return static_cast<int>(s.terminals.size() + s.sites.size());
}
}  // namespace fix
// === bench/fix_scenario.cpp
int main() {
  fix::Scenario cfg;
  cfg.terminals.push_back(1);
  return fix::count(cfg);
}
