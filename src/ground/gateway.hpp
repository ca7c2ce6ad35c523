#pragma once

// Gateway (ground-station) network.
//
// Starlink of the paper's era is a bent pipe: a satellite can only serve a
// terminal while it simultaneously sees a gateway ground station (§2). This
// models the gateway side: a registry of ground-station sites and the
// connectivity predicate "does satellite X currently see any gateway?". The
// global scheduler can take the network as an additional hard constraint;
// with a realistically dense network the constraint rarely binds (most LEO
// satellites over CONUS/EU see several gateways), which is why the paper's
// analyses never had to model it — the sparse-network ablation in
// bench/ext_handover_throughput shows when it starts to matter.

#include <string>
#include <vector>

#include "geo/frame_vec.hpp"
#include "geo/geodetic.hpp"
#include "geo/units.hpp"
#include "geo/vec3.hpp"
#include "time/julian_date.hpp"

namespace starlab::ground {

struct Gateway {
  std::string name;
  geo::Geodetic site;
};

class GatewayNetwork {
 public:
  explicit GatewayNetwork(std::vector<Gateway> gateways,
                          geo::Deg min_elevation = geo::Deg(25.0));

  /// A realistic 2023-era subset: ~20 gateways across CONUS and Western
  /// Europe (the regions serving the paper's terminals).
  [[nodiscard]] static GatewayNetwork paper_region_network();

  /// A deliberately sparse network (a handful of sites) for ablations.
  [[nodiscard]] static GatewayNetwork sparse_network();

  /// True if the satellite at `sat_ecef_km` is above the elevation floor of
  /// at least one gateway.
  [[nodiscard]] bool has_gateway(const geo::EcefKm& sat_ecef_km) const;

  [[nodiscard]] const std::vector<Gateway>& gateways() const {
    return gateways_;
  }
  [[nodiscard]] geo::Deg min_elevation() const { return min_elevation_; }

 private:
  std::vector<Gateway> gateways_;
  std::vector<geo::EcefKm> gateway_ecef_;
  geo::Deg min_elevation_;
};

}  // namespace starlab::ground
