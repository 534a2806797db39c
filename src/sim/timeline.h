// Record of executed task spans, used by tests and the wave-pattern bench
// (Fig. 3) to inspect what ran when.
#ifndef SRC_SIM_TIMELINE_H_
#define SRC_SIM_TIMELINE_H_

#include <string>
#include <vector>

#include "src/sim/event_record.h"

namespace flo {

struct TaskSpan {
  std::string name;
  SimTime start = 0.0;
  SimTime end = 0.0;
};

class Timeline {
 public:
  void Add(std::string name, SimTime start, SimTime end);

  const std::vector<TaskSpan>& spans() const { return spans_; }
  bool empty() const { return spans_.empty(); }

  // Total busy time (sum of span durations; spans on one stream never
  // overlap so this is also the union length).
  SimTime BusyTime() const;

  // Last end time across spans (0 when empty).
  SimTime EndTime() const;

  // First span whose name contains `substr`; returns nullptr if none.
  const TaskSpan* FindFirst(const std::string& substr) const;

 private:
  std::vector<TaskSpan> spans_;
};

}  // namespace flo

#endif  // SRC_SIM_TIMELINE_H_
