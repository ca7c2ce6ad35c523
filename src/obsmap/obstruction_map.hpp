#pragma once

// The 123x123 binary obstruction-map frame, bit-compatible in semantics with
// what starlink-grpc-tools extracts from a dish: white pixels trace the sky
// paths of satellites that served the terminal since the last reset, painted
// cumulatively until a reboot wipes the frame.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obsmap/map_geometry.hpp"

namespace starlab::obsmap {

class ObstructionMap {
 public:
  static constexpr int kSize = 123;
  static constexpr std::size_t kNumPixels =
      static_cast<std::size_t>(kSize) * kSize;
  /// Pixels packed one bit each into 64-bit words, row-major: pixel
  /// `y * kSize + x` is bit `i % 64` of word `i / 64`. The 39 bits past the
  /// last pixel are always zero.
  static constexpr std::size_t kNumWords = (kNumPixels + 63) / 64;

  [[nodiscard]] bool get(int x, int y) const {
    return in_bounds(x, y) && bit(index(x, y));
  }

  void set(int x, int y, bool value = true) {
    if (!in_bounds(x, y)) return;
    const std::size_t i = index(x, y);
    const std::uint64_t mask = std::uint64_t{1} << (i % 64);
    if (value) {
      words_[i / 64] |= mask;
    } else {
      words_[i / 64] &= ~mask;
    }
  }

  void set(const Pixel& p, bool value = true) { set(p.x, p.y, value); }
  [[nodiscard]] bool get(const Pixel& p) const { return get(p.x, p.y); }

  /// Wipe the frame (terminal reboot).
  void clear() { words_.fill(0); }

  /// Number of set pixels.
  [[nodiscard]] std::size_t popcount() const;

  /// The i-th storage word: 64 pixels in row-major order (see kNumWords).
  /// Word-wise scans — the reset detector's `prev & ~curr`, popcount() —
  /// walk these instead of 15k individual pixels.
  [[nodiscard]] std::uint64_t word(std::size_t i) const { return words_[i]; }

  /// All set pixels, row-major order.
  [[nodiscard]] std::vector<Pixel> set_pixels() const;

  /// Pixel-wise XOR — the paper's trajectory-isolation primitive: applied to
  /// two consecutive frames, everything common cancels and only the newest
  /// trajectory survives.
  [[nodiscard]] ObstructionMap exclusive_or(const ObstructionMap& other) const;

  bool operator==(const ObstructionMap& other) const = default;

  /// Render as binary PGM (P5) for external viewing.
  [[nodiscard]] std::string to_pgm() const;

  /// Compact ASCII rendering ('#' set, '.' clear), optionally downsampled by
  /// an integer factor so a frame fits in a terminal.
  [[nodiscard]] std::string to_ascii(int downsample = 2) const;

 private:
  [[nodiscard]] static bool in_bounds(int x, int y) {
    return x >= 0 && x < kSize && y >= 0 && y < kSize;
  }
  [[nodiscard]] static std::size_t index(int x, int y) {
    return static_cast<std::size_t>(y) * kSize + static_cast<std::size_t>(x);
  }
  [[nodiscard]] bool bit(std::size_t i) const {
    return ((words_[i / 64] >> (i % 64)) & 1u) != 0;
  }

  std::array<std::uint64_t, kNumWords> words_{};
};

}  // namespace starlab::obsmap
