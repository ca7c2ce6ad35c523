#pragma once

// From an XOR-isolated pixel blob to an ordered planar trajectory.
//
// The XOR of two consecutive obstruction-map frames yields an *unordered*
// set of pixels. DTW needs sequences, so the pixels are chained into a path:
// start from an extremal pixel (one end of the streak) and repeatedly hop to
// the nearest unvisited pixel. Both traversal directions are kept by the
// identifier since the map does not encode the satellite's direction of
// motion. Conversion to Cartesian uses the (possibly recovered) map
// geometry, mirroring the paper's polar -> Cartesian step.

#include <vector>

#include "match/dtw.hpp"
#include "obsmap/map_geometry.hpp"
#include "obsmap/obstruction_map.hpp"

namespace starlab::match {

/// Planar coordinates (pixel units, polar-plot plane) of a sky direction.
[[nodiscard]] Point2 sky_to_plane(const obsmap::SkyPoint& sky,
                                  const obsmap::MapGeometry& geometry);

/// Order a pixel blob into a path by nearest-neighbour chaining from the
/// farthest-pair endpoint. Returns pixel-centre coordinates.
[[nodiscard]] std::vector<Point2> chain_pixels(
    const std::vector<obsmap::Pixel>& pixels);

/// Full extraction: set pixels of an isolated frame, chained, as plane
/// points. Pixels outside the polar plot (per `geometry`) are dropped.
[[nodiscard]] std::vector<Point2> extract_trajectory(
    const obsmap::ObstructionMap& isolated,
    const obsmap::MapGeometry& geometry);

}  // namespace starlab::match
