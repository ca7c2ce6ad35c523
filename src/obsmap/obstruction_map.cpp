#include "obsmap/obstruction_map.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "check/contracts.hpp"
#include "check/hotpath.hpp"

namespace starlab::obsmap {

STARLAB_HOTPATH std::uint64_t ObstructionMap::word(std::size_t i) const {
  std::uint64_t w = 0;
  std::memcpy(&w, bits_.data() + i * 8, 8);
  return w;
}

STARLAB_HOTPATH std::size_t ObstructionMap::popcount() const {
  // Pixels are 0x00/0x01 bytes, so each set pixel contributes exactly one
  // bit to its word; pad bytes are always zero.
  std::size_t n = 0;
  for (std::size_t i = 0; i < kNumWords; ++i) {
    n += static_cast<std::size_t>(std::popcount(word(i)));
  }
  return n;
}

std::vector<Pixel> ObstructionMap::set_pixels() const {
  std::vector<Pixel> out;
  for (int y = 0; y < kSize; ++y) {
    for (int x = 0; x < kSize; ++x) {
      if (bits_[index(x, y)]) out.push_back({x, y});
    }
  }
  return out;
}

ObstructionMap ObstructionMap::exclusive_or(const ObstructionMap& other) const {
  // Frames being combined must agree on their pixel-storage geometry; a
  // mismatch means one of them was deserialized from a foreign dump.
  STARLAB_EXPECT(bits_.size() == other.bits_.size(),
                 "obstruction-map frame dimensions differ");
  ObstructionMap out;
  for (std::size_t i = 0; i < bits_.size(); ++i) {
    out.bits_[i] = bits_[i] ^ other.bits_[i];
  }
  return out;
}

std::string ObstructionMap::to_pgm() const {
  constexpr std::size_t kPixels = static_cast<std::size_t>(kSize) * kSize;
  std::string out = "P5\n123 123\n255\n";
  out.reserve(out.size() + kPixels);
  for (std::size_t i = 0; i < kPixels; ++i) {
    out.push_back(bits_[i] ? static_cast<char>(255) : static_cast<char>(0));
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
