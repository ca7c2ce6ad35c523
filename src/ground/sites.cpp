#include "ground/sites.hpp"

#include <stdexcept>

namespace starlab::ground {

const char* site_name(Site site) {
  switch (site) {
    case Site::kIowa: return "Iowa";
    case Site::kNewYork: return "New York";
    case Site::kMadrid: return "Madrid";
    case Site::kWashington: return "Washington";
  }
  throw std::invalid_argument("unknown site");
}

TerminalConfig paper_terminal_config(Site site) {
  TerminalConfig cfg;
  cfg.name = site_name(site);
  switch (site) {
    case Site::kIowa:
      // Iowa City; served via the Chicago PoP.
      cfg.site = {41.661, -91.530, 0.22};
      cfg.pop_site = {41.878, -87.630, 0.18};
      break;
    case Site::kNewYork:
      // Ithaca; served via the New York PoP. The dish sat under severe tree
      // cover to its north-west (§5.1): the horizon there rises to ~55 deg.
      cfg.site = {42.444, -76.500, 0.25};
      cfg.pop_site = {40.713, -74.006, 0.01};
      cfg.mask.add_obstruction(geo::Deg(270.0), geo::Deg(360.0), geo::Deg(70.0));
      cfg.mask.add_obstruction(geo::Deg(240.0), geo::Deg(270.0), geo::Deg(45.0));
      break;
    case Site::kMadrid:
      // Madrid; served via the Madrid PoP.
      cfg.site = {40.417, -3.704, 0.65};
      cfg.pop_site = {40.437, -3.680, 0.60};
      break;
    case Site::kWashington:
      // Seattle area; served via the Seattle PoP.
      cfg.site = {47.606, -122.332, 0.05};
      cfg.pop_site = {47.450, -122.300, 0.10};
      break;
  }
  return cfg;
}

}  // namespace starlab::ground
