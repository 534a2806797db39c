// Serving-scale event loop: typed records over a calendar queue.
//
// Ordering contract: events fire in (time, band, sequence) order, where
// band 0 holds arrivals and band 1 everything else. Arrivals win
// equal-time ties, as if every arrival had been scheduled up front (lowest
// sequence numbers) before any internal event. Within a band, push order
// breaks ties — the FIFO stability determinism rests on.
#ifndef SRC_SIM_EVENT_LOOP_H_
#define SRC_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/calendar_queue.h"
#include "src/sim/event_record.h"

namespace flo {

class EventLoop {
 public:
  using Handler = std::function<void(const EventRecord&, SimTime)>;

  EventLoop();

  // Registers a dispatch target and returns its id for EventRecord::handler.
  // Handlers are never unregistered: sessions register at construction and
  // any events referencing a destroyed session must have drained first
  // (runs always drain the queue to empty). The callable is boxed once here
  // and dispatched through a single indirect call per event — measurably
  // cheaper than std::function's double indirection at millions of events.
  template <typename F>
  uint32_t RegisterHandler(F handler) {
    auto owner = std::make_shared<F>(std::move(handler));
    handlers_.push_back(HandlerSlot{
        [](void* ctx, const EventRecord& record, SimTime now) {
          (*static_cast<F*>(ctx))(record, now);
        },
        owner.get(), std::move(owner)});
    return static_cast<uint32_t>(handlers_.size() - 1);
  }

  // Schedules a typed record. Once dispatching has begun, `time` must be
  // >= the last dispatched time (checked); before the first dispatch and
  // after a full drain, pushes may arrive in any time order. Inline: this
  // runs once per simulated event in million-event serving runs.
  void Push(SimTime time, const EventRecord& record) {
    FLO_CHECK_LT(record.handler, handlers_.size());
    // No scheduling in the past — relative to *dispatched* time. Before the
    // first dispatch (and after a full drain) pushes may legally arrive in
    // any time order; the floor arms once RunOne establishes "now".
    if (floor_armed_) {
      FLO_CHECK_GE(time, floor_) << "event scheduled in the past";
    }
    calendar_.Push(time, NextOrder(record.type), record);
  }

  // Convenience for cold paths (demos, one-off checkpoints): schedules a
  // closure through a pooled slot. Hot paths should use typed records.
  void PushCall(SimTime time, std::function<void()> call);

  // Observation tap: called for every dispatched event, just before its
  // handler, with the record and the event time. The tap observes only — it
  // is not an event, does not advance time, and does not count toward
  // dispatched(), so attaching one cannot perturb the simulation. Used by
  // the observability plane (flight recorder, metrics checkpoints). Pass
  // nullptr to detach. Raw fn-pointer + ctx to keep the disabled cost at
  // one predictable branch per event.
  using TapFn = void (*)(void* ctx, const EventRecord& record, SimTime now);
  void SetTap(TapFn tap, void* ctx) {
    tap_ = tap;
    tap_ctx_ = ctx;
  }

  // Dispatches the earliest event. Returns false when the queue is empty,
  // otherwise stores the event time in *now.
  bool RunOne(SimTime* now) {
    if (calendar_.empty()) {
      return false;
    }
    const CalendarEntry entry = calendar_.PopMin();
    *now = entry.time;
    floor_ = entry.time;
    floor_armed_ = !calendar_.empty();
    ++dispatched_;
    if (tap_ != nullptr) {
      tap_(tap_ctx_, entry.record, entry.time);
    }
    const HandlerSlot& slot = handlers_[entry.record.handler];
    slot.invoke(slot.ctx, entry.record, entry.time);
    return true;
  }

  // Drains the queue; returns the time of the last dispatched event (0.0 if
  // the queue was already empty). Specialized rather than looping over
  // RunOne: it keeps `now` in a register across the million-iteration loop.
  SimTime RunToCompletion() {
    SimTime last = 0.0;
    while (!calendar_.empty()) {
      const CalendarEntry entry = calendar_.PopMin();
      floor_ = entry.time;
      floor_armed_ = !calendar_.empty();
      ++dispatched_;
      if (tap_ != nullptr) {
        tap_(tap_ctx_, entry.record, entry.time);
      }
      const HandlerSlot& slot = handlers_[entry.record.handler];
      slot.invoke(slot.ctx, entry.record, entry.time);
      last = entry.time;
    }
    return last;
  }

  bool empty() const { return calendar_.empty(); }
  size_t size() const { return calendar_.size(); }

  // Total events dispatched over the loop's lifetime.
  uint64_t dispatched() const { return dispatched_; }

 private:
  uint64_t NextOrder(EventType type) {
    const uint64_t band = type == EventType::kArrival ? 0ull : 1ull;
    return (band << 63) | next_seq_++;
  }

  // One registered dispatch target: a raw invoker over a boxed callable.
  struct HandlerSlot {
    void (*invoke)(void*, const EventRecord&, SimTime);
    void* ctx;
    std::shared_ptr<void> owner;  // keeps the boxed callable alive
  };

  CalendarQueue calendar_;
  std::vector<HandlerSlot> handlers_;
  std::vector<std::function<void()>> calls_;  // PushCall slot pool
  std::vector<uint32_t> free_calls_;
  uint64_t next_seq_ = 0;
  uint64_t dispatched_ = 0;
  // No-past floor: the last dispatched time, armed only while undispatched
  // events remain. Before the first dispatch — and after a full drain, so
  // one loop can serve back-to-back runs — pushes are time-order free.
  SimTime floor_ = 0.0;
  bool floor_armed_ = false;
  TapFn tap_ = nullptr;
  void* tap_ctx_ = nullptr;
};

}  // namespace flo

#endif  // SRC_SIM_EVENT_LOOP_H_
