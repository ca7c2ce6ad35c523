#pragma once

// The 123x123 binary obstruction-map frame, bit-compatible in semantics with
// what starlink-grpc-tools extracts from a dish: white pixels trace the sky
// paths of satellites that served the terminal since the last reset, painted
// cumulatively until a reboot wipes the frame.

#include <cstdint>
#include <string>
#include <vector>

#include "obsmap/map_geometry.hpp"

namespace starlab::obsmap {

class ObstructionMap {
 public:
  static constexpr int kSize = 123;
  /// Pixel bytes viewed as 64-bit words (the storage is padded with
  /// always-zero bytes up to a word boundary).
  static constexpr std::size_t kNumWords =
      (static_cast<std::size_t>(kSize) * kSize + 7) / 8;

  ObstructionMap() : bits_(kNumWords * 8, 0) {}

  [[nodiscard]] bool get(int x, int y) const {
    return in_bounds(x, y) && bits_[index(x, y)] != 0;
  }

  void set(int x, int y, bool value = true) {
    if (in_bounds(x, y)) bits_[index(x, y)] = value ? 1 : 0;
  }

  void set(const Pixel& p, bool value = true) { set(p.x, p.y, value); }
  [[nodiscard]] bool get(const Pixel& p) const { return get(p.x, p.y); }

  /// Wipe the frame (terminal reboot).
  void clear() { std::fill(bits_.begin(), bits_.end(), 0); }

  /// Number of set pixels.
  [[nodiscard]] std::size_t popcount() const;

  /// The i-th 64-bit word of pixel storage (8 one-byte pixels, 0x00/0x01
  /// each; trailing pad bytes are always zero). Word-wise scans — the reset
  /// detector's `prev & ~curr` popcount, the word-wise popcount() — walk
  /// these instead of 15k individual pixels.
  [[nodiscard]] std::uint64_t word(std::size_t i) const;

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

  std::vector<std::uint8_t> bits_;
};

}  // namespace starlab::obsmap
