// Fixture: option-reachability. `return {true, true};` in a function
// returning Config writes Config's first two members by position; the
// third (`trace`) is a finding.
// === src/obs/config.hpp
namespace fix {
struct Config {
  bool metrics = false;
  bool spans = false;
  bool trace = false;
  static Config all();
};
Config Config::all() { return {true, true}; }
}  // namespace fix
// === bench/fix_config.cpp
int main() { return fix::Config::all().trace ? 1 : 0; }
