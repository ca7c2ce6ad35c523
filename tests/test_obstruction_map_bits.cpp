// The one-bit-per-pixel ObstructionMap against a byte-per-pixel reference
// frame, operation by operation: random frames at several densities plus
// single pixels at the corners and on both sides of every 64-bit word
// boundary, where a packed layout goes wrong first.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "fault/injectors.hpp"
#include "obsmap/components.hpp"
#include "obsmap/obstruction_map.hpp"

namespace starlab::obsmap {
namespace {

constexpr int kSize = ObstructionMap::kSize;
constexpr std::size_t kPixels = ObstructionMap::kNumPixels;

/// Byte-per-pixel frame: the layout ObstructionMap had before it packed
/// pixels into words, with each operation written the plain way.
struct RefFrame {
  std::vector<std::uint8_t> px = std::vector<std::uint8_t>(kPixels, 0);

  static bool in_bounds(int x, int y) {
    return x >= 0 && x < kSize && y >= 0 && y < kSize;
  }
  static std::size_t index(int x, int y) {
    return static_cast<std::size_t>(y) * kSize + static_cast<std::size_t>(x);
  }
  bool get(int x, int y) const { return in_bounds(x, y) && px[index(x, y)]; }
  void set(int x, int y, bool v) {
    if (in_bounds(x, y)) px[index(x, y)] = v ? 1 : 0;
  }
  std::size_t popcount() const {
    return static_cast<std::size_t>(std::count(px.begin(), px.end(), 1));
  }
  std::vector<Pixel> set_pixels() const {
    std::vector<Pixel> out;
    for (int y = 0; y < kSize; ++y) {
      for (int x = 0; x < kSize; ++x) {
        if (get(x, y)) out.push_back({x, y});
      }
    }
    return out;
  }
  RefFrame exclusive_or(const RefFrame& o) const {
    RefFrame out;
    for (std::size_t i = 0; i < kPixels; ++i) out.px[i] = px[i] ^ o.px[i];
    return out;
  }
  std::string to_pgm() const {
    std::string out = "P5\n123 123\n255\n";
    for (const std::uint8_t p : px) {
      out.push_back(p ? static_cast<char>(255) : static_cast<char>(0));
    }
    return out;
  }
  std::string to_ascii(int downsample) const {
    std::string out;
    for (int y = 0; y < kSize; y += downsample) {
      for (int x = 0; x < kSize; x += downsample) {
        bool any = false;
        for (int dy = 0; dy < downsample; ++dy) {
          for (int dx = 0; dx < downsample; ++dx) any |= get(x + dx, y + dy);
        }
        out.push_back(any ? '#' : '.');
      }
      out.push_back('\n');
    }
    return out;
  }
  /// Row-major pixel scan, std::vector<bool> visited set, the same flood
  /// fill and stable sort as connected_components.
  std::vector<std::vector<Pixel>> components() const {
    std::vector<std::vector<Pixel>> out;
    std::vector<bool> visited(kPixels, false);
    for (const Pixel& seed : set_pixels()) {
      if (visited[index(seed.x, seed.y)]) continue;
      std::vector<Pixel> component;
      std::vector<Pixel> stack{seed};
      visited[index(seed.x, seed.y)] = true;
      while (!stack.empty()) {
        const Pixel p = stack.back();
        stack.pop_back();
        component.push_back(p);
        for (int dy = -1; dy <= 1; ++dy) {
          for (int dx = -1; dx <= 1; ++dx) {
            const int nx = p.x + dx;
            const int ny = p.y + dy;
            if ((dx == 0 && dy == 0) || !get(nx, ny) ||
                visited[index(nx, ny)]) {
              continue;
            }
            visited[index(nx, ny)] = true;
            stack.push_back({nx, ny});
          }
        }
      }
      out.push_back(std::move(component));
    }
    std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.size() > b.size();
    });
    return out;
  }
};

struct Pair {
  std::string name;
  ObstructionMap map;
  RefFrame ref;

  void set(std::size_t i) {
    const int x = static_cast<int>(i % kSize);
    const int y = static_cast<int>(i / kSize);
    map.set(x, y);
    ref.set(x, y, true);
  }
};

/// Pixel indices on both sides of every 64-bit word boundary.
std::vector<std::size_t> boundary_pixels() {
  std::vector<std::size_t> out;
  for (std::size_t k = 1; 64 * k < kPixels; ++k) {
    out.push_back(64 * k - 1);
    out.push_back(64 * k);
  }
  return out;
}

std::vector<Pair> frames() {
  std::vector<Pair> out;
  std::mt19937_64 rng(20231008);
  for (const double density : {0.0, 0.003, 0.05, 1.0}) {
    Pair f{"density " + std::to_string(density), {}, {}};
    for (std::size_t i = 0; i < kPixels; ++i) {
      if (static_cast<double>(rng() >> 11) * 0x1p-53 < density) f.set(i);
    }
    out.push_back(std::move(f));
  }
  for (const std::size_t i : {std::size_t{0}, kPixels - 1}) {
    Pair f{"pixel " + std::to_string(i), {}, {}};
    f.set(i);
    out.push_back(std::move(f));
  }
  for (const std::size_t i : boundary_pixels()) {
    Pair f{"pixel " + std::to_string(i), {}, {}};
    f.set(i);
    out.push_back(std::move(f));
  }
  Pair all_boundaries{"all word boundaries", {}, {}};
  for (const std::size_t i : boundary_pixels()) all_boundaries.set(i);
  out.push_back(std::move(all_boundaries));
  return out;
}

/// The bits of the last word past pixel 15128, which must stay zero.
std::uint64_t pad_bits(const ObstructionMap& map) {
  return map.word(ObstructionMap::kNumWords - 1) >> (kPixels % 64);
}

void expect_same(const ObstructionMap& map, const RefFrame& ref,
                 const std::string& name) {
  SCOPED_TRACE(name);
  for (int y = -1; y <= kSize; ++y) {
    for (int x = -1; x <= kSize; ++x) {
      ASSERT_EQ(map.get(x, y), ref.get(x, y)) << "(" << x << "," << y << ")";
    }
  }
  EXPECT_EQ(map.popcount(), ref.popcount());
  EXPECT_EQ(map.set_pixels(), ref.set_pixels());
  EXPECT_EQ(pad_bits(map), 0u);
}

TEST(ObstructionMapBits, SinglePixelsLandAtTheirIndex) {
  ObstructionMap last;
  last.set(122, 122);
  EXPECT_EQ(last.word(ObstructionMap::kNumWords - 1),
            std::uint64_t{1} << ((kPixels - 1) % 64));
  EXPECT_EQ(kPixels - 1, 15128u);
  ObstructionMap first;
  first.set(0, 0);
  EXPECT_EQ(first.word(0), 1u);
}

TEST(ObstructionMapBits, GetPopcountAndSetPixelsMatchReference) {
  for (const Pair& f : frames()) expect_same(f.map, f.ref, f.name);
}

TEST(ObstructionMapBits, UnsetAndClearMatchReference) {
  for (Pair f : frames()) {
    // Clear every other set pixel, then the whole frame.
    const std::vector<Pixel> set = f.ref.set_pixels();
    for (std::size_t k = 0; k < set.size(); k += 2) {
      f.map.set(set[k], false);
      f.ref.set(set[k].x, set[k].y, false);
    }
    expect_same(f.map, f.ref, f.name + " half unset");
    f.map.clear();
    expect_same(f.map, RefFrame{}, f.name + " cleared");
    EXPECT_EQ(f.map, ObstructionMap{});
  }
}

TEST(ObstructionMapBits, XorAndEqualityMatchReference) {
  // Every frame against the random and corner ones (the first six).
  const std::vector<Pair> fs = frames();
  for (std::size_t a = 0; a < fs.size(); ++a) {
    for (std::size_t b = 0; b < 6; ++b) {
      const ObstructionMap x = fs[a].map.exclusive_or(fs[b].map);
      const RefFrame rx = fs[a].ref.exclusive_or(fs[b].ref);
      expect_same(x, rx, fs[a].name + " ^ " + fs[b].name);
      EXPECT_EQ(fs[a].map == fs[b].map, fs[a].ref.px == fs[b].ref.px)
          << fs[a].name << " == " << fs[b].name;
    }
  }
  // Frames differing in the last pixel only are unequal.
  ObstructionMap a;
  ObstructionMap b;
  b.set(122, 122);
  EXPECT_NE(a, b);
  b.set(122, 122, false);
  EXPECT_EQ(a, b);
}

TEST(ObstructionMapBits, ExportsMatchReferenceBytes) {
  for (const Pair& f : frames()) {
    SCOPED_TRACE(f.name);
    EXPECT_EQ(f.map.to_pgm(), f.ref.to_pgm());
    for (const int downsample : {1, 2, 3}) {
      EXPECT_EQ(f.map.to_ascii(downsample), f.ref.to_ascii(downsample))
          << "downsample " << downsample;
    }
  }
}

TEST(ObstructionMapBits, ComponentsMatchReferenceInOrder) {
  for (const Pair& f : frames()) {
    SCOPED_TRACE(f.name);
    const auto got = connected_components(f.map);
    const auto want = f.ref.components();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k], want[k]) << "component " << k;
    }
  }
}

TEST(ObstructionMapBits, CorruptKeepsPadBitsZero) {
  fault::FaultPlan plan;
  plan.frame.bit_flip_rate = 0.01;
  const fault::FrameFaultInjector injector(plan);
  time::SlotIndex slot = 0;
  for (Pair f : frames()) {
    SCOPED_TRACE(f.name);
    EXPECT_GT(injector.corrupt(f.map, 0, slot++), 0u);
    EXPECT_EQ(f.map.popcount(), f.map.set_pixels().size());
    EXPECT_EQ(pad_bits(f.map), 0u);
  }
}

}  // namespace
}  // namespace starlab::obsmap
