#include "obsmap/obstruction_map.hpp"

#include <bit>

#include "check/hotpath.hpp"

namespace starlab::obsmap {

STARLAB_HOTPATH std::size_t ObstructionMap::popcount() const {
  std::size_t n = 0;
  for (const std::uint64_t w : words_) {
    n += static_cast<std::size_t>(std::popcount(w));
  }
  return n;
}

std::vector<Pixel> ObstructionMap::set_pixels() const {
  std::vector<Pixel> out;
  out.reserve(popcount());
  for (std::size_t w = 0; w < kNumWords; ++w) {
    for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t i = w * 64 + static_cast<std::size_t>(
                                         std::countr_zero(bits));
      out.push_back({static_cast<int>(i % kSize), static_cast<int>(i / kSize)});
    }
  }
  return out;
}

// Both operands are one fixed-size type, so they cannot disagree on the
// frame's dimensions. The words hold every pixel plus 39 pad bits.
static_assert(ObstructionMap::kNumWords * 64 == ObstructionMap::kNumPixels + 39,
              "obstruction-map storage must be 237 words");

STARLAB_HOTPATH ObstructionMap
ObstructionMap::exclusive_or(const ObstructionMap& other) const {
  ObstructionMap out;
  for (std::size_t i = 0; i < kNumWords; ++i) {
    out.words_[i] = words_[i] ^ other.words_[i];
  }
  return out;
}

std::string ObstructionMap::to_pgm() const {
  std::string out = "P5\n123 123\n255\n";
  out.reserve(out.size() + kNumPixels);
  for (std::size_t i = 0; i < kNumPixels; ++i) {
    out.push_back(bit(i) ? static_cast<char>(255) : static_cast<char>(0));
  }
  return out;
}

std::string ObstructionMap::to_ascii(int downsample) const {
  if (downsample < 1) downsample = 1;
  std::string out;
  for (int y = 0; y < kSize; y += downsample) {
    for (int x = 0; x < kSize; x += downsample) {
      bool any = false;
      for (int dy = 0; dy < downsample && !any; ++dy) {
        for (int dx = 0; dx < downsample && !any; ++dx) {
          any = get(x + dx, y + dy);
        }
      }
      out.push_back(any ? '#' : '.');
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace starlab::obsmap
