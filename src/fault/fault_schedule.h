// The deterministic fault schedule: a sorted list of typed FaultEvents a
// ServingCluster injects through its shared EventLoop.
//
// Two construction paths, both reproducible:
//  - FromConfig expands FaultConfig seeds into events (times uniform over
//    the horizon, replicas uniform over the fleet, via the SplitMix64 Rng);
//  - ParseCsv loads a hand-written or recorded chaos script, so a fault
//    scenario can be replayed bit-for-bit (ToCsv is the inverse).
//
// Events are kept sorted by (time, kind, replica); the cluster schedules
// every event before dispatch begins, so injection order is part of the
// deterministic event timeline.
#ifndef SRC_FAULT_FAULT_SCHEDULE_H_
#define SRC_FAULT_FAULT_SCHEDULE_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "src/fault/fault_config.h"
#include "src/sim/event_record.h"

namespace flo {

// One injection. `duration_us` is the fault window (crash: restart delay;
// hang/slowdown/ship-loss: the window length; tuner-fail: unused).
// `magnitude` is kind-specific (slowdown: cost multiplier; ship-loss: the
// drop fraction). `replica` is the target id (-1 = fleet scope, only
// meaningful for kShipLoss).
struct FaultEvent {
  SimTime time_us = 0.0;
  FaultKind kind = FaultKind::kCrash;
  int replica = 0;
  double duration_us = 0.0;
  double magnitude = 0.0;

  bool operator==(const FaultEvent&) const = default;
};

class FaultSchedule {
 public:
  // Expands the config's per-kind counts into a sorted schedule over
  // `replica_count` replicas. Deterministic in (config, replica_count).
  static FaultSchedule FromConfig(const FaultConfig& config, int replica_count);

  // CSV script: `time_us,kind,replica,duration_us,magnitude` per line,
  // '#' comments and blank lines allowed. std::nullopt on any malformed
  // line. The parsed schedule is re-sorted, so scripts need not be.
  static std::optional<FaultSchedule> ParseCsv(const std::string& text);
  std::string ToCsv() const;

  void Add(const FaultEvent& event);

  bool empty() const { return events_.empty(); }
  size_t size() const { return events_.size(); }
  const std::vector<FaultEvent>& events() const { return events_; }

 private:
  void SortEvents();

  std::vector<FaultEvent> events_;
};

}  // namespace flo

#endif  // SRC_FAULT_FAULT_SCHEDULE_H_
