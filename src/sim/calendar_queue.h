// Calendar queue: amortized O(1) priority queue for discrete-event cores.
//
// Brown's calendar queue hashes each event into a "day" bucket by its
// timestamp; popping scans the current "year" of buckets starting at the day
// of the last popped event. With the bucket count and width tracking the live
// event population, both Push and PopMin are amortized O(1) — versus the
// O(log n) sift of a binary heap — and entries live in flat vectors, so there
// is no per-event allocation in steady state.
//
// Ordering is exact, not approximate: the scan qualifies entries by their
// integer virtual-bucket index (floor(time / width)), so two events with equal
// timestamps always land in the same virtual bucket and are tie-broken by the
// caller-supplied 64-bit order. Pops therefore come out in exact (time,
// order) order, as from a binary heap on that pair.
//
// The queue itself is permissive about time order: a push earlier than the
// scan origin simply rewinds the origin (a few extra empty days on the next
// pop, never a wrong answer). The discrete-event "no scheduling in the past"
// rule — pushes >= the last *dispatched* time — is enforced by EventLoop,
// which knows when a dispatch has actually happened.
//
// Push and PopMin are defined inline: they run once per simulated event in
// million-event serving runs, and the cross-TU call plus the missed
// VirtualBucket inlining are measurable at that rate.
#ifndef SRC_SIM_CALENDAR_QUEUE_H_
#define SRC_SIM_CALENDAR_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/event_record.h"
#include "src/util/check.h"

namespace flo {

struct CalendarEntry {
  SimTime time = 0.0;
  uint64_t vday = 0;  // VirtualBucket(time) under the current width; cached
                      // at push, refreshed on redistribute, so the pop scan
                      // qualifies with an integer compare instead of a
                      // floating multiply per entry
  uint64_t order = 0;
  EventRecord record;
};

class CalendarQueue {
 public:
  CalendarQueue();

  void Push(SimTime time, uint64_t order, const EventRecord& record) {
    const uint64_t vday = VirtualBucket(time);
    if (size_ == 0 || time < last_time_) {
      // Rewind the scan origin: starting the year scan earlier than the true
      // minimum is always correct, just a few extra empty days. No-past
      // enforcement relative to *dispatched* time is EventLoop's job —
      // before the first dispatch, pushes may legally arrive out of order.
      last_time_ = time;
      scan_vday_ = vday;
    }
    buckets_[vday & mask_].push_back(CalendarEntry{time, vday, order, record});
    ++size_;
    if (size_ > 2 * buckets_.size()) {
      Rebuild(2 * buckets_.size());
    }
  }

  // Removes and returns the entry with the smallest (time, order).
  // Requires !empty().
  CalendarEntry PopMin() {
    FLO_CHECK_GT(size_, 0u);
    // Scan one "year": starting at the virtual bucket of the last popped
    // event, visit each day once. Qualification is by exact integer virtual
    // bucket, so equal timestamps always qualify together and the in-bucket
    // (time, order) comparison resolves them exactly.
    uint64_t scan = scan_vday_;
    for (size_t step = 0; step <= mask_; ++step, ++scan) {
      std::vector<CalendarEntry>& bucket = buckets_[scan & mask_];
      if (bucket.empty()) {
        continue;
      }
      size_t best = bucket.size();
      for (size_t i = 0; i < bucket.size(); ++i) {
        if (bucket[i].vday != scan) {
          continue;  // a later year in the same day; a later cycle picks it up
        }
        if (best == bucket.size() || bucket[i].time < bucket[best].time ||
            (bucket[i].time == bucket[best].time && bucket[i].order < bucket[best].order)) {
          best = i;
        }
      }
      if (best != bucket.size()) {
        CalendarEntry entry = bucket[best];
        bucket[best] = bucket.back();
        bucket.pop_back();
        last_time_ = entry.time;
        scan_vday_ = entry.vday;
        --size_;
        if (buckets_.size() > kMinBuckets && size_ < buckets_.size() / 2) {
          Rebuild(buckets_.size() / 2);
        }
        return entry;
      }
    }
    return PopOverflow();
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  size_t bucket_count() const { return buckets_.size(); }

 private:
  // Smallest bucket array; also the size below which resizing never triggers.
  static constexpr size_t kMinBuckets = 8;

  // Virtual (un-wrapped) bucket index of a timestamp. Integer, so the
  // year-scan qualification below is exact for equal timestamps.
  uint64_t VirtualBucket(SimTime time) const {
    return static_cast<uint64_t>(time * inv_width_);
  }

  // Slow path when nothing is due within a year of the scan origin: direct
  // minimum search plus a width retune. Out of line — it must stay off the
  // steady-state pop path.
  CalendarEntry PopOverflow();

  // Resizes to `bucket_count` buckets and re-derives the bucket width from
  // the live population. Deterministic: depends only on queue content.
  void Rebuild(size_t bucket_count);

  // Re-hashes every entry into `bucket_count` buckets under the current
  // width. Used by Rebuild and by the PopOverflow width retune.
  void Redistribute(size_t bucket_count);

  // Full-queue minimum search; fallback when the next event is more than a
  // year ahead of the scan position.
  CalendarEntry PopDirect();

  std::vector<std::vector<CalendarEntry>> buckets_;
  size_t mask_ = 0;          // buckets_.size() - 1 (power of two)
  double width_ = 1.0;       // seconds of simulated time per bucket
  double inv_width_ = 1.0;   // 1.0 / width_
  size_t size_ = 0;
  SimTime last_time_ = 0.0;   // time of the last popped entry; scan origin
  uint64_t scan_vday_ = 0;    // VirtualBucket(last_time_), kept in sync so
                              // the pop scan starts without a float multiply
  std::vector<CalendarEntry> scratch_;  // Redistribute staging, reused
};

}  // namespace flo

#endif  // SRC_SIM_CALENDAR_QUEUE_H_
