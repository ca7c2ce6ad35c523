// Fixture: option-reachability. A designated initializer writes the member
// it names (`band`) and no other (`window` stays a finding).
// === src/fix/dtw.hpp
namespace fix {
struct DtwConfig {
  int band = 8;
  int window = 4;
};
int score(const DtwConfig& c) { return c.band * c.window; }
}  // namespace fix
// === bench/fix_dtw.cpp
int main() { return fix::score(fix::DtwConfig{.band = 2}); }
