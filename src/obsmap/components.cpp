#include "obsmap/components.hpp"

#include <algorithm>

namespace starlab::obsmap {

std::vector<std::vector<Pixel>> connected_components(
    const ObstructionMap& frame) {
  std::vector<std::vector<Pixel>> components;
  // Visited pixels, as a second bitset of the frame's own layout.
  ObstructionMap visited;

  for (const Pixel& seed : frame.set_pixels()) {
    if (visited.get(seed)) continue;

    // Flood fill (8-connectivity) from this seed.
    std::vector<Pixel> component;
    std::vector<Pixel> stack{seed};
    visited.set(seed);
    while (!stack.empty()) {
      const Pixel p = stack.back();
      stack.pop_back();
      component.push_back(p);
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          if (dx == 0 && dy == 0) continue;
          // get() is false outside the frame, so no bounds test is needed.
          const Pixel n{p.x + dx, p.y + dy};
          if (!frame.get(n) || visited.get(n)) continue;
          visited.set(n);
          stack.push_back(n);
        }
      }
    }
    components.push_back(std::move(component));
  }

  std::stable_sort(components.begin(), components.end(),
                   [](const auto& a, const auto& b) {
                     return a.size() > b.size();
                   });
  return components;
}

}  // namespace starlab::obsmap
