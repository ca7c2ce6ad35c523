#pragma once

// The paper's four vantage points, preconfigured: Iowa (Midwest US),
// Ithaca NY (Northeast US, with the documented severe north-west tree
// obstruction), Madrid (Western Europe) and Seattle WA (Northwest US),
// each paired with the Starlink PoP serving its region.

#include <vector>

#include "ground/terminal.hpp"

namespace starlab::ground {

/// Identifier for the four measurement locations, in the order the paper's
/// figures list them.
enum class Site {
  kIowa,
  kNewYork,
  kMadrid,
  kWashington,
};

/// Human-readable name matching the figure legends.
[[nodiscard]] const char* site_name(Site site);

/// Terminal configuration for one of the paper's vantage points.
[[nodiscard]] TerminalConfig paper_terminal_config(Site site);

}  // namespace starlab::ground
