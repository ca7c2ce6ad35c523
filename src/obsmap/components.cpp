#include "obsmap/components.hpp"

#include <algorithm>

namespace starlab::obsmap {

std::vector<std::vector<Pixel>> connected_components(
    const ObstructionMap& frame) {
  std::vector<std::vector<Pixel>> components;
  std::vector<bool> visited(
      static_cast<std::size_t>(ObstructionMap::kSize) * ObstructionMap::kSize,
      false);
  const auto index = [](int x, int y) {
    return static_cast<std::size_t>(y) * ObstructionMap::kSize +
           static_cast<std::size_t>(x);
  };

  for (const Pixel& seed : frame.set_pixels()) {
    if (visited[index(seed.x, seed.y)]) continue;

    // Flood fill (8-connectivity) from this seed.
    std::vector<Pixel> component;
    std::vector<Pixel> stack{seed};
    visited[index(seed.x, seed.y)] = true;
    while (!stack.empty()) {
      const Pixel p = stack.back();
      stack.pop_back();
      component.push_back(p);
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          if (dx == 0 && dy == 0) continue;
          const int nx = p.x + dx;
          const int ny = p.y + dy;
          if (nx < 0 || ny < 0 || nx >= ObstructionMap::kSize ||
              ny >= ObstructionMap::kSize) {
            continue;
          }
          if (!frame.get(nx, ny) || visited[index(nx, ny)]) continue;
          visited[index(nx, ny)] = true;
          stack.push_back({nx, ny});
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
