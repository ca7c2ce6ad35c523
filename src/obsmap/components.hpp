#pragma once

// Connected-component analysis on obstruction-map frames.
//
// A clean XOR isolates exactly one streak, but reality is messier: partial
// trajectory overlaps leave the old streak's un-cancelled stubs, and a
// mid-window reboot can leave two satellites' paths in one frame. Component
// labeling separates the blobs so the identifier can match against the
// dominant streak instead of a scatter of strays.

#include <vector>

#include "obsmap/obstruction_map.hpp"

namespace starlab::obsmap {

/// 8-connected components of the set pixels, ordered largest first.
[[nodiscard]] std::vector<std::vector<Pixel>> connected_components(
    const ObstructionMap& frame);

}  // namespace starlab::obsmap
