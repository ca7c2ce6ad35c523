#include "time/slot_grid.hpp"

#include <cmath>

namespace starlab::time {

SlotIndex SlotGrid::slot_of(double unix_sec) const {
  return static_cast<SlotIndex>(std::floor((unix_sec - offset_) / period_));
}

double SlotGrid::slot_start(SlotIndex slot) const {
  return offset_ + static_cast<double>(slot) * period_;
}

bool SlotGrid::near_boundary(double unix_sec, double tol_sec) const {
  const double start = slot_start(slot_of(unix_sec));
  const double into = unix_sec - start;
  return into <= tol_sec || (period_ - into) <= tol_sec;
}

}  // namespace starlab::time
