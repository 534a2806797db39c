#include "src/fault/fault_schedule.h"

#include <algorithm>
#include <sstream>

#include "src/util/check.h"
#include "src/util/parse.h"
#include "src/util/rng.h"
#include "src/util/table.h"

namespace flo {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kHang:
      return "hang";
    case FaultKind::kSlowdown:
      return "slowdown";
    case FaultKind::kTunerFail:
      return "tuner_fail";
    case FaultKind::kShipLoss:
      return "ship_loss";
    case FaultKind::kCount:
      break;
  }
  return "?";
}

double RetryBackoffUs(const FaultConfig& faults, uint64_t id, int attempt) {
  // No std::pow: libm rounding is not a determinism bet worth making.
  double backoff = kRetryBackoffBaseUs;
  const int doublings = std::min(attempt, 10) - 1;
  for (int i = 0; i < doublings; ++i) {
    backoff *= 2.0;
  }
  const double jitter =
      Rng(StableHash().Mix(faults.seed).Mix(id).Mix(attempt).value()).NextDouble();
  return backoff + faults.retry_backoff_jitter_us * jitter;
}

namespace {

// Seeded schedules' per-kind windows and magnitudes.
constexpr double kCrashRestartUs = 5000.0;    // crash -> restart delay
constexpr double kHangWindowUs = 4000.0;      // stall duration
constexpr double kSlowdownWindowUs = 8000.0;  // straggler window
constexpr double kSlowdownMultiplier = 3.0;   // execution-cost multiplier
constexpr double kShipLossWindowUs = 5000.0;  // drop-filter window
constexpr double kShipLossFraction = 0.5;     // per-(key, peer) drop probability

std::optional<FaultKind> TryFaultKindFromName(const std::string& name) {
  for (const FaultKind kind : {FaultKind::kCrash, FaultKind::kHang, FaultKind::kSlowdown,
                               FaultKind::kTunerFail, FaultKind::kShipLoss}) {
    if (name == FaultKindName(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

}  // namespace

void FaultSchedule::SortEvents() {
  // (time, kind, replica): a total order over distinct events, so the
  // injection sequence is independent of generation or script order.
  std::sort(events_.begin(), events_.end(), [](const FaultEvent& a, const FaultEvent& b) {
    if (a.time_us != b.time_us) {
      return a.time_us < b.time_us;
    }
    if (a.kind != b.kind) {
      return static_cast<int>(a.kind) < static_cast<int>(b.kind);
    }
    return a.replica < b.replica;
  });
}

void FaultSchedule::Add(const FaultEvent& event) {
  events_.push_back(event);
  SortEvents();
}

FaultSchedule FaultSchedule::FromConfig(const FaultConfig& config, int replica_count) {
  FLO_CHECK_GE(replica_count, 1);
  FaultSchedule schedule;
  if (!config.enabled()) {
    return schedule;
  }
  FLO_CHECK_GT(config.horizon_us, 0.0) << "seeded fault schedules need a horizon";
  Rng rng(config.seed);
  // Fixed generation order (kind-major), so the draw sequence — and thus
  // the schedule — is a pure function of (config, replica_count).
  const auto draw = [&](FaultKind kind, int count, double duration, double magnitude) {
    for (int i = 0; i < count; ++i) {
      FaultEvent event;
      // Keep injections off the very edges of the run: a fault at t=0
      // or past the horizon exercises nothing.
      event.time_us = config.horizon_us * (0.05 + 0.85 * rng.NextDouble());
      event.kind = kind;
      event.replica = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(replica_count)));
      event.duration_us = duration;
      event.magnitude = magnitude;
      schedule.events_.push_back(event);
    }
  };
  draw(FaultKind::kCrash, config.crashes, kCrashRestartUs, 0.0);
  draw(FaultKind::kHang, config.hangs, kHangWindowUs, 0.0);
  draw(FaultKind::kSlowdown, config.slowdowns, kSlowdownWindowUs, kSlowdownMultiplier);
  draw(FaultKind::kTunerFail, config.tuner_failures, 0.0, 0.0);
  draw(FaultKind::kShipLoss, config.ship_loss_windows, kShipLossWindowUs, kShipLossFraction);
  schedule.SortEvents();
  return schedule;
}

std::string FaultSchedule::ToCsv() const {
  std::ostringstream out;
  out << "# fault schedule: time_us,kind,replica,duration_us,magnitude\n";
  for (const FaultEvent& event : events_) {
    out << FormatDoubleExact(event.time_us) << ',' << FaultKindName(event.kind) << ','
        << event.replica << ',' << FormatDoubleExact(event.duration_us) << ','
        << FormatDoubleExact(event.magnitude) << '\n';
  }
  return out.str();
}

std::optional<FaultSchedule> FaultSchedule::ParseCsv(const std::string& text) {
  FaultSchedule schedule;
  std::stringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::stringstream fields(line);
    std::string time_us;
    std::string kind;
    std::string replica;
    std::string duration_us;
    std::string magnitude;
    if (!std::getline(fields, time_us, ',') || !std::getline(fields, kind, ',') ||
        !std::getline(fields, replica, ',') || !std::getline(fields, duration_us, ',') ||
        !std::getline(fields, magnitude)) {
      return std::nullopt;
    }
    FaultEvent event;
    const auto parsed_time = TryParseDouble(time_us);
    const auto parsed_kind = TryFaultKindFromName(kind);
    const auto parsed_replica = TryParseInt(replica);
    const auto parsed_duration = TryParseDouble(duration_us);
    const auto parsed_magnitude = TryParseDouble(magnitude);
    if (!parsed_time || !parsed_kind || !parsed_replica || !parsed_duration ||
        !parsed_magnitude || *parsed_time < 0.0 || *parsed_duration < 0.0) {
      return std::nullopt;
    }
    event.time_us = *parsed_time;
    event.kind = *parsed_kind;
    event.replica = *parsed_replica;
    event.duration_us = *parsed_duration;
    event.magnitude = *parsed_magnitude;
    schedule.events_.push_back(event);
  }
  schedule.SortEvents();
  return schedule;
}

}  // namespace flo
