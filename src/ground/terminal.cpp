#include "ground/terminal.hpp"

namespace starlab::ground {

Terminal::Terminal(TerminalConfig config)
    : config_(std::move(config)),
      gso_arc_(std::make_unique<geo::GsoArc>(config_.site)) {}

std::vector<Candidate> Terminal::candidates(
    const constellation::Catalog& catalog, const time::JulianDate& jd) const {
  return annotate(
      catalog.visible_from(config_.site, jd, config_.min_elevation));
}

std::vector<Candidate> Terminal::candidates_from_snapshots(
    const constellation::Catalog& catalog,
    std::span<const constellation::Catalog::Snapshot> snapshots,
    const time::JulianDate& jd) const {
  return annotate(catalog.visible_from_snapshots(
      snapshots, config_.site, jd, config_.min_elevation));
}

std::vector<Candidate> Terminal::annotate(
    std::vector<constellation::SkyEntry> visible) const {
  std::vector<Candidate> out;
  out.reserve(visible.size());
  for (constellation::SkyEntry& e : visible) {
    Candidate c;
    c.obstructed = config_.mask.blocked(e.look.azimuth(), e.look.elevation());
    c.gso_excluded = gso_arc_->excluded(e.look.azimuth(), e.look.elevation(),
                                        kGsoProtection);
    c.sky = std::move(e);
    out.push_back(std::move(c));
  }
  return out;
}

}  // namespace starlab::ground
