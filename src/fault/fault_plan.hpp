#pragma once

// Deterministic, seedable fault injection.
//
// Real Starlink campaigns are not clean: gRPC obstruction-map polls fail or
// return corrupted frames, probe streams suffer loss bursts beyond the
// nominal link loss, vantage-point clocks step and drift between NTP
// corrections, and satellites vanish from the usable set for a slot at a
// time. A FaultPlan describes all of those degradations in one place so a
// scenario, campaign or pipeline run can be stressed reproducibly: every
// injector draws its decisions from counter-based hashes of (plan seed,
// entity, slot), never from shared RNG state, so the same plan replays the
// same faults and `intensity == 0` is bit-identical to running with no plan
// at all.

#include <cstdint>
#include <string>

namespace starlab::fault {

/// Obstruction-map observation faults (the gRPC poll path).
struct FrameFaultConfig {
  /// Probability that a slot's end-of-slot frame poll returns nothing.
  double drop_rate = 0.0;
  /// Per-pixel probability that an observed frame arrives with that pixel
  /// flipped (transport/decoder corruption).
  double bit_flip_rate = 0.0;
};

/// Probe-stream faults layered over a recorded RTT series.
struct RttFaultConfig {
  /// Marginal loss rate added by a Gilbert-Elliott burst overlay (losses
  /// arrive in bursts, not independently).
  double extra_loss_rate = 0.0;
  /// Mean burst length of the overlay, in probes.
  double mean_burst_probes = 20.0;
  /// Probability that a received probe reports an outlier spike.
  double spike_rate = 0.0;
  /// Magnitude added to a spiked probe's RTT [ms].
  double spike_ms = 150.0;
};

/// Vantage-point clock faults (undisciplined intervals between NTP steps).
struct ClockFaultConfig {
  /// Magnitude of the offset redrawn at every sync epoch [ms]; the realized
  /// offset is uniform in [-step_ms, step_ms].
  double step_ms = 0.0;
  /// Spacing of sync epochs [s].
  double step_interval_sec = 3600.0;
  /// Frequency error accumulating between steps [ppm].
  double drift_ppm = 0.0;
};

/// Per-slot satellite dropout: a candidate vanishes from the usable set for
/// one slot (thermal safe-mode, beam maintenance, telemetry gap).
struct DropoutFaultConfig {
  /// Probability that a given (satellite, slot) pair is dropped.
  double rate = 0.0;
};

/// Execution faults: supervised tasks (slot shards, per-terminal pipeline
/// passes) crashing mid-flight — the OOM kills and poisoned inputs the
/// resilience supervisor exists to absorb.
struct ExecFaultConfig {
  /// Probability that one attempt of a supervised task fails outright.
  /// Keyed by (task, attempt), so retries of a doomed attempt can succeed.
  double task_fail_rate = 0.0;
};

struct FaultPlan {
  std::uint64_t seed = 101;
  /// Global multiplier applied to every rate and magnitude above at
  /// injection time. 0 disables every injector exactly; 1 applies the
  /// configured values as-is. Sweeps scale this one knob.
  double intensity = 1.0;

  FrameFaultConfig frame;
  RttFaultConfig rtt;
  ClockFaultConfig clock;
  DropoutFaultConfig dropout;
  ExecFaultConfig exec;

  /// True when at least one injector can fire at this intensity.
  [[nodiscard]] bool enabled() const;

  /// Copy with a different global intensity (sweep convenience).
  [[nodiscard]] FaultPlan with_intensity(double value) const;
};

/// Serialize as the `key = value` schema documented in docs/FORMATS.md
/// (only non-default fields are written; an empty string is the default
/// plan).
[[nodiscard]] std::string format_fault_plan(const FaultPlan& plan);

/// Parse the `key = value` schema. Unknown keys and malformed lines throw
/// std::runtime_error naming the offending line.
[[nodiscard]] FaultPlan parse_fault_plan(const std::string& text);

}  // namespace starlab::fault
