#include "src/sched/fleet_scheduler.h"

#include "src/util/check.h"

namespace flo {
namespace {

// Whole half-life periods elapsed since the anchor, capped so the
// halving loop stays O(1); past 64 periods the share underflows to
// zero anyway.
int DecayPeriods(SimTime anchor_us, SimTime now, double half_life_us) {
  if (half_life_us <= 0.0 || now <= anchor_us) {
    return 0;
  }
  const double periods = (now - anchor_us) / half_life_us;
  return periods >= 64.0 ? 64 : static_cast<int>(periods);
}

// Repeated halving instead of std::pow/exp2: libm rounding is not
// bit-stable across toolchains, 0.5 multiplication is.
double Halve(double value, int periods) {
  for (int i = 0; i < periods; ++i) {
    value *= 0.5;
  }
  return value;
}

// Folds whole-period decay into an account in place (the shared idiom of
// the usage shares and the arrival account).
void FoldDecay(double* mass, SimTime* anchor_us, SimTime now, double half_life_us) {
  const int periods = DecayPeriods(*anchor_us, now, half_life_us);
  if (periods >= 64) {
    *mass = 0.0;
    *anchor_us = now;
  } else if (periods > 0) {
    *mass = Halve(*mass, periods);
    *anchor_us += periods * half_life_us;
  }
}

}  // namespace

FleetScheduler::Priority FleetScheduler::KeyFor(uint32_t tenant_id, SimTime arrival_us,
                                                SimTime now) const {
  Priority priority;
  priority.arrival_us = arrival_us;
  priority.usage_us = UsageAt(tenant_id, now);
  priority.starving =
      config_.starvation_age_us > 0.0 && now - arrival_us >= config_.starvation_age_us;
  return priority;
}

bool FleetScheduler::Before(const Priority& a, const Priority& b) {
  if (a.starving != b.starving) {
    return a.starving;
  }
  if (a.starving) {
    return a.arrival_us < b.arrival_us;  // oldest starving request first
  }
  if (a.usage_us != b.usage_us) {
    return a.usage_us < b.usage_us;  // lightest tenant first
  }
  return a.arrival_us < b.arrival_us;
}

size_t FleetScheduler::PickLane(const std::vector<RequestQueue::LaneHead>& heads,
                                SimTime now) const {
  FLO_CHECK(!heads.empty());
  size_t best = 0;
  Priority best_priority = KeyFor(heads[0].tenant_id, heads[0].arrival_us, now);
  for (size_t i = 1; i < heads.size(); ++i) {
    const Priority priority = KeyFor(heads[i].tenant_id, heads[i].arrival_us, now);
    if (Before(priority, best_priority)) {
      best = i;
      best_priority = priority;
    }
  }
  return best;
}

FleetScheduler::TenantShare& FleetScheduler::ShareFor(uint32_t tenant_id) {
  FLO_CHECK_GT(tenant_id, 0u);
  if (tenant_id >= shares_.size()) {
    shares_.resize(tenant_id + 1);
  }
  return shares_[tenant_id];
}

void FleetScheduler::Charge(uint32_t tenant_id, double cost_us, SimTime now) {
  TenantShare& share = ShareFor(tenant_id);
  FoldDecay(&share.usage_us, &share.anchor_us, now, config_.share_half_life_us);
  share.usage_us += cost_us;
}

void ArrivalRate::Charge(SimTime now) {
  FoldDecay(&mass_, &anchor_us_, now, half_life_us_);
  mass_ += 1.0;
}

RateEstimate ArrivalRate::Sample(SimTime now, double interval_us) {
  RateEstimate estimate;
  if (half_life_us_ <= 0.0 || interval_us <= 0.0) {
    return estimate;
  }
  FoldDecay(&mass_, &anchor_us_, now, half_life_us_);
  // Phase-compensated inversion: folding decays in whole half-life
  // quanta, so the mass still carries an un-decayed span of
  // d = now - anchor in [0, half_life). At a steady rate of r arrivals/us
  // the after-fold mass is r * half_life (the geometric tail) plus r * d
  // (the un-decayed arrivals), so r = mass / (half_life + d) — exact at
  // any sample phase, where dividing by half_life alone would swing the
  // estimate by up to 2x with the anchor's position. No libm.
  const double undecayed_us = now - anchor_us_;
  const double rate_per_us = mass_ / (half_life_us_ + undecayed_us);
  estimate.arrivals_per_interval = rate_per_us * interval_us;
  if (sampled_) {
    estimate.trend = estimate.arrivals_per_interval - last_rate_per_interval_;
  }
  last_rate_per_interval_ = estimate.arrivals_per_interval;
  sampled_ = true;
  return estimate;
}

double FleetScheduler::UsageAt(uint32_t tenant_id, SimTime now) const {
  if (tenant_id >= shares_.size()) {
    return 0.0;
  }
  const TenantShare& share = shares_[tenant_id];
  if (share.usage_us <= 0.0) {
    return 0.0;
  }
  const int periods = DecayPeriods(share.anchor_us, now, config_.share_half_life_us);
  // At the cap the share is zero by definition, matching Charge's fold.
  return periods >= 64 ? 0.0 : Halve(share.usage_us, periods);
}

void FleetScheduler::ObserveLatency(uint32_t tenant_id, double latency_us) {
  if (config_.slo_shed && config_.slo_p99_us > 0.0) {
    ShareFor(tenant_id).latency_us.Observe(latency_us);
  }
}

double FleetScheduler::TenantP99Us(uint32_t tenant_id) const {
  if (tenant_id >= shares_.size()) {
    return 0.0;
  }
  const Histogram& histogram = shares_[tenant_id].latency_us;
  return histogram.count() == 0 ? 0.0 : histogram.ApproxPercentile(0.99);
}

bool FleetScheduler::TenantSloBlown(uint32_t tenant_id) const {
  return config_.slo_shed && config_.slo_p99_us > 0.0 &&
         TenantP99Us(tenant_id) > config_.slo_p99_us;
}

bool FleetScheduler::BackfillFits(double predicted_service_us, double window_us) const {
  return config_.backfill && window_us > 0.0 &&
         predicted_service_us * config_.backfill_slack <= window_us;
}

void FleetScheduler::ResetRunState() {
  shares_.clear();
}

}  // namespace flo
