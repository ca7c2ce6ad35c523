#include "ground/gateway.hpp"

#include "geo/topocentric.hpp"

namespace starlab::ground {

GatewayNetwork::GatewayNetwork(std::vector<Gateway> gateways,
                               geo::Deg min_elevation)
    : gateways_(std::move(gateways)), min_elevation_(min_elevation) {
  gateway_ecef_.reserve(gateways_.size());
  for (const Gateway& g : gateways_) {
    gateway_ecef_.push_back(geo::geodetic_to_ecef(g.site));
  }
}

GatewayNetwork GatewayNetwork::paper_region_network() {
  return GatewayNetwork({
      // CONUS (approximate public gateway locations of the era).
      {"Merrillan WI", {44.45, -90.83, 0.3}},
      {"Greenville PA", {41.40, -80.39, 0.3}},
      {"Hawthorne CA", {33.92, -118.33, 0.02}},
      {"Redmond WA", {47.67, -122.12, 0.1}},
      {"Boca Chica TX", {25.99, -97.19, 0.0}},
      {"Conrad MT", {48.19, -111.95, 1.1}},
      {"Beekmantown NY", {44.75, -73.52, 0.1}},
      {"Hampton GA", {33.39, -84.28, 0.3}},
      {"Kuna ID", {43.49, -116.42, 0.8}},
      {"Loring ME", {46.94, -67.89, 0.2}},
      {"Colburn ID", {48.37, -116.48, 0.7}},
      {"Butte MT", {45.95, -112.50, 1.7}},
      {"Adelanto CA", {34.58, -117.41, 0.9}},
      {"Prosser WA", {46.21, -119.77, 0.3}},
      // Western Europe.
      {"Fawley UK", {50.82, -1.33, 0.0}},
      {"Aerzen DE", {52.05, 9.26, 0.2}},
      {"Villenave FR", {44.77, -0.55, 0.02}},
      {"Alhaurin ES", {36.66, -4.68, 0.1}},
      {"Benavente ES", {42.00, -5.68, 0.7}},
      {"Turin IT", {45.07, 7.69, 0.24}},
      {"Frankfurt DE", {50.11, 8.68, 0.11}},
  });
}

GatewayNetwork GatewayNetwork::sparse_network() {
  return GatewayNetwork({
      {"Hawthorne CA", {33.92, -118.33, 0.02}},
      {"Greenville PA", {41.40, -80.39, 0.3}},
      {"Fawley UK", {50.82, -1.33, 0.0}},
  });
}

bool GatewayNetwork::has_gateway(const geo::EcefKm& sat_ecef_km) const {
  for (const Gateway& g : gateways_) {
    if (geo::look_angles(g.site, sat_ecef_km).elevation_deg >=
        min_elevation_.value()) {
      return true;
    }
  }
  return false;
}

}  // namespace starlab::ground
