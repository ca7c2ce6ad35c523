// Fixture: option-reachability. `Options::verbose` is set only from a test
// file, which is not an entry point, so it always holds its default there
// and is a finding; `Options::threads` is set by the bench and is not.
// === src/fix/options.hpp
namespace fix {
struct Options {
  int threads = 1;
  bool verbose = false;
};
int run(const Options& o) { return o.verbose ? o.threads : 0; }
}  // namespace fix
// === bench/fix_options.cpp
int main() {
  fix::Options o;
  o.threads = 4;
  return fix::run(o);
}
// === tests/test_fix_options.cpp
void test_verbose() {
  fix::Options o;
  o.verbose = true;
  (void)fix::run(o);
}
