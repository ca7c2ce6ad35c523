// Fixture: option-reachability. Writing through a nested member,
// `ab.identifier.dtw_band = band`, writes `identifier` as well as
// `dtw_band`; `Ablation::label` is never written.
// === src/match/ablation.hpp
namespace fix {
struct IdentifierConfig {
  int dtw_band = 8;
};
struct Ablation {
  IdentifierConfig identifier;
  int label = 0;
};
int run(const Ablation& ab) { return ab.identifier.dtw_band + ab.label; }
}  // namespace fix
// === bench/fix_ablation.cpp
int main() {
  fix::Ablation ab;
  const int band = 3;
  ab.identifier.dtw_band = band;
  return fix::run(ab);
}
