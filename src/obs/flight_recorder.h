// Flight recorder: a bounded ring of the last-N dispatched events and
// emitted spans, dumped to stderr when a FLO_CHECK fails — the post-mortem
// for "which events led up to this" in a million-event run.
//
// Recording is O(1) per event (two stores and a counter), fed from the
// event-loop tap and the span path; InstallCheckHook registers the dump
// with util/check so the abort prints the tail automatically.
#ifndef SRC_OBS_FLIGHT_RECORDER_H_
#define SRC_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <cstdio>
#include <vector>

#include "src/obs/span.h"
#include "src/sim/event_record.h"

namespace flo {

class FlightRecorder {
 public:
  explicit FlightRecorder(size_t capacity);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Hot path (called once per dispatched event / emitted span): inline so
  // the ring write costs two stores and a counter, not a cross-TU call; a
  // full ring wraps a head cursor, so no write divides.
  void OnEvent(const EventRecord& record, SimTime now) {
    if (events_.size() < capacity_) {
      events_.push_back(EventEntry{now, record});
    } else {
      events_[event_head_] = EventEntry{now, record};
      if (++event_head_ == capacity_) {
        event_head_ = 0;
      }
    }
    ++event_next_;
  }
  void OnSpan(const SpanRecord& span) {
    if (spans_.size() < capacity_) {
      spans_.push_back(span);
    } else {
      spans_[span_head_] = span;
      if (++span_head_ == capacity_) {
        span_head_ = 0;
      }
    }
    ++span_next_;
  }

  // Registers Dump with the FLO_CHECK failure path; idempotent. The
  // destructor unregisters.
  void InstallCheckHook();

  // Prints the retained tails (oldest first) to `out`.
  void Dump(std::FILE* out) const;

  uint64_t events_seen() const { return event_next_; }
  void Clear();

 private:
  struct EventEntry {
    SimTime time_us = 0.0;
    EventRecord record;
  };

  size_t capacity_;
  // Each ring's head is its oldest entry once full (0 until it wraps); the
  // *_next_ counters total everything ever recorded.
  std::vector<EventEntry> events_;
  size_t event_head_ = 0;
  uint64_t event_next_ = 0;
  std::vector<SpanRecord> spans_;
  size_t span_head_ = 0;
  uint64_t span_next_ = 0;
  int check_hook_ = -1;
};

}  // namespace flo

#endif  // SRC_OBS_FLIGHT_RECORDER_H_
