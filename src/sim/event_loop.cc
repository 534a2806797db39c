#include "src/sim/event_loop.h"

#include <utility>

#include "src/util/check.h"

namespace flo {

namespace {
// Reserved handler id used by PushCall to dispatch pooled closures.
constexpr uint32_t kCallHandler = 0;
}  // namespace

EventLoop::EventLoop() {
  // Handler 0: run a pooled closure and recycle its slot.
  RegisterHandler([this](const EventRecord& record, SimTime) {
    std::function<void()> call = std::move(calls_[record.slot]);
    calls_[record.slot] = nullptr;
    free_calls_.push_back(record.slot);
    call();
  });
}

void EventLoop::PushCall(SimTime time, std::function<void()> call) {
  FLO_CHECK(call != nullptr);
  uint32_t slot;
  if (!free_calls_.empty()) {
    slot = free_calls_.back();
    free_calls_.pop_back();
    calls_[slot] = std::move(call);
  } else {
    slot = static_cast<uint32_t>(calls_.size());
    calls_.push_back(std::move(call));
  }
  EventRecord record;
  record.handler = kCallHandler;
  record.slot = slot;
  Push(time, record);
}

}  // namespace flo
