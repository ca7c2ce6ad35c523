// Fixture: reachability. `run` takes a parameter named `cancel` and uses
// it; that is not a use of the method `Token::cancel`, which nothing calls
// and must stay a finding. A local lambda named `flush` is called, which
// is not a call of `Sink::flush` either.
// === src/exec/token.hpp
namespace fix {
struct Token {
  bool cancelled = false;
  void cancel() { cancelled = true; }
};
struct Sink {
  void flush() {}
};
int run(const Token& cancel) {
  const auto flush = [] { return 1; };
  return cancel.cancelled ? 0 : flush();
}
}  // namespace fix
// === bench/fix_token.cpp
int main() { return fix::run(fix::Token{}); }
