#include "analysis/histogram.hpp"

#include <gtest/gtest.h>


namespace starlab::analysis {
namespace {

TEST(Histogram, BinAssignment) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.0);   // bin 0
  h.add(1.99);  // bin 0
  h.add(2.0);   // bin 1
  h.add(9.99);  // bin 4
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(4), 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, UnderOverflow) {
  Histogram h(0.0, 10.0, 5);
  h.add(-0.1);
  h.add(10.0);  // hi edge is exclusive
  h.add(99.0);
  EXPECT_EQ(h.total(), 3u);
  for (std::size_t b = 0; b < h.num_bins(); ++b) EXPECT_EQ(h.count(b), 0u);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 3), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 3), std::invalid_argument);
}

TEST(Histogram, EmptyIsSafe) {
  const Histogram h(0.0, 1.0, 4);
  EXPECT_EQ(h.total(), 0u);
  for (std::size_t b = 0; b < h.num_bins(); ++b) EXPECT_EQ(h.count(b), 0u);
}

}  // namespace
}  // namespace starlab::analysis
