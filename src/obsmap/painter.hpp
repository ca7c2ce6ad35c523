#pragma once

// Painting satellite trajectories into obstruction-map frames, and the
// dish-side recorder that accumulates them.
//
// A real dish paints the sky path of whichever satellite currently serves it
// into its obstruction map, cumulatively, until rebooted. MapRecorder
// reproduces exactly that observable behaviour for the simulated terminal;
// the §4 pipeline then consumes its 15-second snapshots the way the paper
// consumes starlink-grpc-tools dumps.

#include <optional>
#include <vector>

#include "constellation/catalog.hpp"
#include "geo/frames.hpp"
#include "ground/terminal.hpp"
#include "obsmap/obstruction_map.hpp"
#include "scheduler/global_scheduler.hpp"
#include "time/slot_grid.hpp"

namespace starlab::obsmap {

/// Path-sampling interval [s]: the painter samples a serving satellite's
/// sky path at this rate, and the identifier samples candidate paths at the
/// same rate so the two are comparable.
inline constexpr double kPathSampleSec = 1.0;

/// One sampling window [t_begin, t_end), stepped by kPathSampleSec, as seen
/// from one site: each instant's TEME -> ECEF rotation and the observer's
/// frame are evaluated once and shared by every satellite sampled over the
/// window. TrajectoryPainter::paint and SatelliteIdentifier's candidate
/// paths both sample through it, and each look is bit-identical to
/// Catalog::look_at at the same instant (same functions, same inputs).
class PathSampler {
 public:
  PathSampler(const constellation::Catalog& catalog, const geo::Geodetic& site,
              double t_begin, double t_end);

  /// Number of sample instants in the window.
  [[nodiscard]] std::size_t size() const { return instants_.size(); }

  /// Look angles of `catalog_index` at sample `k`. Throws sgp4::Sgp4Error
  /// when the satellite has decayed by then, as Catalog::look_at does.
  [[nodiscard]] geo::LookAngles look(std::size_t catalog_index,
                                     std::size_t k) const;

  [[nodiscard]] const geo::ObserverFrame& observer() const {
    return observer_;
  }

 private:
  struct Instant {
    time::JulianDate jd;
    geo::TemeToEcefRotation teme_to_ecef;
  };

  const constellation::Catalog& catalog_;
  geo::ObserverFrame observer_;
  std::vector<Instant> instants_;
};

class TrajectoryPainter {
 public:
  explicit TrajectoryPainter(MapGeometry geometry = {})
      : geometry_(geometry) {}

  /// Paint the sky path of `catalog_index` as seen from `terminal` over
  /// [t_begin, t_end) into `frame`. Consecutive samples are joined with a
  /// line so the trace is gap-free at any sampling rate.
  void paint(const constellation::Catalog& catalog, std::size_t catalog_index,
             const ground::Terminal& terminal, double t_begin, double t_end,
             ObstructionMap& frame) const;


 private:
  MapGeometry geometry_;
};

/// Dish-side accumulating recorder: one per terminal.
class MapRecorder {
 public:
  MapRecorder(const constellation::Catalog& catalog,
              const ground::Terminal& terminal, time::SlotGrid grid,
              TrajectoryPainter painter = TrajectoryPainter())
      : catalog_(catalog), terminal_(terminal), grid_(grid), painter_(painter) {}

  /// Paint one slot's serving-satellite trajectory (nullopt allocation
  /// paints nothing) and return the post-slot snapshot — what a gRPC poll at
  /// the end of the slot would fetch.
  ObstructionMap record_slot(
      const std::optional<scheduler::Allocation>& allocation);

  /// Terminal reboot: wipe the accumulated frame (the paper resets every
  /// 10 minutes to keep trajectories XOR-separable).
  void reset() { accumulated_.clear(); }

  [[nodiscard]] const ObstructionMap& accumulated() const {
    return accumulated_;
  }

 private:
  const constellation::Catalog& catalog_;
  const ground::Terminal& terminal_;
  time::SlotGrid grid_;
  TrajectoryPainter painter_;
  ObstructionMap accumulated_;
};

}  // namespace starlab::obsmap
