#include "measurement/loss_model.hpp"

#include "scheduler/stochastic.hpp"

namespace starlab::measurement {

bool GilbertElliott::step() {
  // Two independent draws per probe: transition, then loss.
  const double u_transition = scheduler::uniform01(
      scheduler::mix_keys(seed_, 0x6e11ULL, sequence_));
  const double u_loss = scheduler::uniform01(
      scheduler::mix_keys(seed_, 0x6e12ULL, sequence_));
  ++sequence_;

  if (bad_) {
    if (u_transition < config_.p_bad_to_good) bad_ = false;
  } else {
    if (u_transition < config_.p_good_to_bad) bad_ = true;
  }
  return u_loss < (bad_ ? config_.loss_bad : config_.loss_good);
}

// starlint:allow(reachability): reference formula for the simulated loss
double GilbertElliott::stationary_loss_rate() const {
  // Stationary probability of Bad: p_gb / (p_gb + p_bg).
  const double denom = config_.p_good_to_bad + config_.p_bad_to_good;
  const double pi_bad = denom > 0.0 ? config_.p_good_to_bad / denom : 0.0;
  return pi_bad * config_.loss_bad + (1.0 - pi_bad) * config_.loss_good;
}

void GilbertElliott::reset() {
  bad_ = false;
  sequence_ = 0;
}

}  // namespace starlab::measurement
