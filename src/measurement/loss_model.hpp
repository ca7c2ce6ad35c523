#pragma once

// Gilbert-Elliott burst-loss model.
//
// The paper's loss observations ("at higher frequencies and bandwidths, the
// packet loss rates ... were highly variable") point at bursty loss, which
// the memoryless per-probe model in LatencyModel cannot produce. The
// classic two-state Markov chain can: a Good state with rare loss and a Bad
// state (rain fade, deep frame contention) where most packets die, with
// slow transitions producing loss bursts.

#include <cstdint>

namespace starlab::measurement {

struct GilbertElliottConfig {
  double p_good_to_bad = 0.0008;  ///< per-probe transition into a burst
  double p_bad_to_good = 0.05;    ///< per-probe recovery (mean burst 20 probes)
  double loss_good = 0.002;       ///< loss probability in the Good state
  double loss_bad = 0.5;          ///< loss probability in the Bad state
};

class GilbertElliott {
 public:
  explicit GilbertElliott(GilbertElliottConfig config = {},
                          std::uint64_t seed = 37)
      : config_(config), seed_(seed) {}

  /// Advance one probe: returns true if that probe is lost. Deterministic
  /// in (seed, call sequence).
  [[nodiscard]] bool step();

  // starlint:allow(reachability): test seam; exposes the hidden channel state
  [[nodiscard]] bool in_bad_state() const { return bad_; }

  /// Long-run stationary loss rate implied by the configuration.
  [[nodiscard]] double stationary_loss_rate() const;

  /// Reset to the Good state and restart the random sequence.
  void reset();


 private:
  GilbertElliottConfig config_;
  std::uint64_t seed_;
  std::uint64_t sequence_ = 0;
  bool bad_ = false;
};

}  // namespace starlab::measurement
