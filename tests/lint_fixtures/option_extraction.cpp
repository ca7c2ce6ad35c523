// Fixture: option-reachability. Stream extraction, `in >> row.value`,
// writes the member it reads into; `Row::weight` is never written.
// === src/io/row.hpp
#include <istream>
namespace fix {
struct Row {
  double value = 0.0;
  double weight = 1.0;
};
Row read_row(std::istream& in) {
  Row row;
  in >> row.value;
  return row;
}
}  // namespace fix
// === bench/fix_row.cpp
int main() { return fix::read_row(std::cin).weight > 0.0; }
