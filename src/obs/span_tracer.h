// Allocation-free span collection: one bounded ring of SpanRecords per
// track (track = replica + 1; track 0 holds fleet-scope and standalone
// spans).
//
// Emit is O(1) and never allocates after a track's first span: the ring
// overwrites its oldest record when full and counts the drop, so a
// 1M-request fleet run retains the last `capacity` spans per replica and
// the export stays bounded by design.
#ifndef SRC_OBS_SPAN_TRACER_H_
#define SRC_OBS_SPAN_TRACER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/obs/span.h"
#include "src/util/check.h"

namespace flo {

class SpanTracer {
 public:
  explicit SpanTracer(size_t ring_capacity);

  // Hot path (once per span): inline so a retained span costs a bounds
  // check and one ring store; a full ring wraps a head cursor, so no write
  // divides.
  void Emit(const SpanRecord& record) {
    FLO_CHECK_GE(record.replica, -1);
    const size_t track = static_cast<size_t>(record.replica + 1);
    if (track >= tracks_.size()) {
      tracks_.resize(track + 1);
    }
    Ring& ring = tracks_[track];
    if (ring.buffer.size() < capacity_) {
      ring.buffer.push_back(record);
    } else {
      ring.buffer[ring.head] = record;
      if (++ring.head == capacity_) {
        ring.head = 0;
      }
      ++dropped_;
    }
    ++emitted_;
  }

  // Tracks ever emitted to (indexes 0..track_count()-1 are valid even if
  // a middle track stayed empty).
  size_t track_count() const { return tracks_.size(); }

  // Retained spans of a track, oldest first.
  std::vector<SpanRecord> TrackSpans(size_t track) const;

  uint64_t emitted() const { return emitted_; }
  uint64_t dropped() const { return dropped_; }

  // Forgets all spans and drop counts; keeps ring allocations.
  void Clear();

 private:
  struct Ring {
    std::vector<SpanRecord> buffer;
    size_t head = 0;  // oldest retained span once the ring is full
  };

  size_t capacity_;
  std::vector<Ring> tracks_;
  uint64_t emitted_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace flo

#endif  // SRC_OBS_SPAN_TRACER_H_
