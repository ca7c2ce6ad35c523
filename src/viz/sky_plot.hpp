#pragma once

// Terminal-centric sky plots: an ASCII polar rendering of the field of view
// (the same projection as the obstruction maps — north up, azimuth
// clockwise, elevation radial from 90 deg at the centre to the 25 deg
// hardware field-of-view rim, N/E/S/W labelled). Used by the examples to
// show candidates, picks, the GSO arc and obstruction masks at a glance.

#include <string>
#include <vector>

namespace starlab::viz {

/// One marker on the sky plot.
struct SkyMark {
  double azimuth_deg = 0.0;
  double elevation_deg = 0.0;
  char symbol = '*';
};

/// Render marks onto a polar sky plot. Later marks overwrite earlier ones on
/// collisions (so draw the important ones last). Marks below the rim
/// elevation are dropped.
[[nodiscard]] std::string render_sky(const std::vector<SkyMark>& marks);

}  // namespace starlab::viz
