// Per-tenant admission queues with compatibility-batched popping.
//
// The serving scheduler admits every arriving request into its tenant's
// FIFO and drains the queues round-robin so no tenant starves. A pop
// returns a *batch*: the rotation tenant's head request defines a plan key
// (the planner's canonical scenario hash), and the batch gathers the
// consecutive same-key run at that tenant's head plus same-key runs at the
// other tenants' heads, up to a size cap. Requests batched together share
// one executor dispatch — and, by construction, one cached plan.
//
// Admission is integer-keyed: lanes are found by interned tenant id (one
// hash of a uint32 per request) while rotation order remains alphabetical
// by tenant name — bit-identical to the historical std::map<std::string>
// iteration, without its per-request string compares. The warm path does
// not touch the heap: each lane is a ring that keeps its storage when it
// drains, per-key depths keep their entries at zero, and the rotation
// point is a lane index rather than a tenant name.
#ifndef SRC_SERVE_REQUEST_QUEUE_H_
#define SRC_SERVE_REQUEST_QUEUE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/serve/request_source.h"

namespace flo {

class RequestQueue {
 public:
  // Maps a spec to its plan-compatibility key (typically
  // OverlapPlanner::CanonicalKey). Keys are computed once, at admission.
  using Keyer = std::function<uint64_t(const ScenarioSpec&)>;

  // A non-empty lane's head, as seen by a LanePicker: the oldest queued
  // request's key and arrival plus the lane's identity and depth. Heads
  // are presented in lane (alphabetical tenant) order.
  struct LaneHead {
    const std::string* tenant = nullptr;
    uint32_t tenant_id = 0;
    uint64_t key = 0;
    SimTime arrival_us = 0.0;
    size_t depth = 0;
    size_t lane_index = 0;  // internal index, echoed back by the picker
  };
  // Ranks the non-empty lane heads and returns the index (into the
  // presented vector) of the lane the next batch should form around.
  // Installed by the fleet scheduler; when absent, lane choice is the
  // historical round-robin rotation.
  using LanePicker = std::function<size_t(const std::vector<LaneHead>&)>;

  explicit RequestQueue(Keyer keyer);

  // Replaces round-robin rotation with scheduler-ranked lane choice for
  // PeekKey/PopBatch/PreviewBatch. Pass nullptr to restore rotation.
  void SetLanePicker(LanePicker picker) { picker_ = std::move(picker); }

  // Keys the request with the Keyer, then admits it.
  void Admit(ServeRequest request);
  // Admits a request already keyed by the caller (`key` must be what the
  // Keyer would return for its spec): callers that route by key compute
  // it once and carry it here, moving the request in.
  void Admit(ServeRequest&& request, uint64_t key);

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  size_t TenantDepth(const std::string& tenant) const;
  // Queued requests whose plan key is `key`, across every tenant — the
  // affinity signal fleet routers use to keep a key's requests together.
  size_t KeyDepth(uint64_t key) const;
  std::vector<std::string> Tenants() const;

  // Pops the next batch (empty only when the queue is empty). Tenant
  // rotation is deterministic: alphabetical order, resuming after the
  // previously chosen tenant. `batch_key`, when non-null, receives the
  // plan key the batch was formed around.
  std::vector<ServeRequest> PopBatch(int max_batch, uint64_t* batch_key = nullptr);

  // Allocation-reusing form: appends the batch into *out (cleared first,
  // capacity kept) and returns the batch's plan key (0 when empty) — the
  // hot-path variant ServeSession's pooled batches use.
  uint64_t PopBatchInto(int max_batch, std::vector<ServeRequest>* out);

  // The plan key the next PopBatch would batch around, without popping or
  // advancing the rotation (so a PopBatch right after returns a batch of
  // exactly this key). Requires !empty(). Lets a scheduler decide lane
  // routing before committing to the pop.
  uint64_t PeekKey() const;

  // Exactly what the next PopBatchInto(max_batch, ...) would form —
  // same key, same request count, and the batch's oldest arrival —
  // without popping. size == 0 iff the queue is empty. Backfill uses
  // this to fit-check a queue batch before committing to the pop.
  struct BatchPreview {
    uint64_t key = 0;
    uint32_t tenant_id = 0;
    size_t size = 0;
    SimTime oldest_arrival_us = 0.0;
  };
  BatchPreview PreviewBatch(int max_batch) const;

  // One preview per non-empty lane, in lane (alphabetical tenant) order:
  // the batch a pop formed around that lane's head would gather. The
  // backfill scan uses these to find warm fillers in lanes the ranked
  // pick passes over (the top lane may be cold and blocked). *out is
  // cleared first, capacity kept.
  void PreviewLanes(int max_batch, std::vector<BatchPreview>* out) const;

  // Pops the batch formed around `tenant_id`'s lane head — exactly what
  // PreviewLanes reported for that lane. Requires a non-empty lane for
  // the tenant. Returns the batch's plan key.
  uint64_t PopLaneBatchInto(uint32_t tenant_id, int max_batch,
                            std::vector<ServeRequest>* out);

  // Moves every queued request, with its plan key, into *out (appended in
  // lane order, FIFO within a lane) and empties the queue. Deterministic:
  // lane order is alphabetical by tenant. Fault recovery and preemption
  // use this to evacuate a replica's backlog for re-placement. Returns the
  // number drained.
  size_t DrainInto(std::vector<KeyedRequest>* out);

 private:
  // One lane's FIFO: a power-of-two ring that doubles when full and keeps
  // its storage when it drains (a deque frees and reallocates a node as a
  // lane swings between empty and one request). Popped slots keep their
  // moved-from requests until overwritten.
  class Ring {
   public:
    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }
    // The i-th oldest entry; i < size().
    const KeyedRequest& operator[](size_t i) const {
      return slots_[(head_ + i) & (slots_.size() - 1)];
    }
    KeyedRequest& front() { return slots_[head_]; }
    const KeyedRequest& front() const { return slots_[head_]; }
    // Moves the request into the next slot.
    void push_back(ServeRequest&& request, uint64_t key);
    void pop_front() {
      head_ = (head_ + 1) & (slots_.size() - 1);
      --size_;
    }

   private:
    std::vector<KeyedRequest> slots_;
    size_t head_ = 0;
    size_t size_ = 0;
  };
  struct Lane {
    std::string tenant;
    uint32_t tenant_id = 0;
    Ring queue;
  };

  // The lane for a request's tenant, interning and creating on demand.
  Lane& LaneFor(ServeRequest* request);
  // Index of the lane whose head defines the next batch. Requires !empty().
  size_t NextLaneIndex() const;
  // The batch a pop formed around lane `chosen`'s head would gather.
  BatchPreview PreviewAt(size_t chosen, int max_batch) const;
  // Pops the batch formed around lane `chosen`'s head into *out.
  uint64_t PopAt(size_t chosen, int max_batch, std::vector<ServeRequest>* out);

  Keyer keyer_;
  LanePicker picker_;
  // Scratch for building the picker's head list without reallocating.
  mutable std::vector<LaneHead> heads_scratch_;
  // Sorted by tenant name; unique_ptr keeps Lane addresses stable across
  // the (rare) sorted insert of a new tenant.
  std::vector<std::unique_ptr<Lane>> lanes_;
  // Interned tenant id -> lane: the per-request fast path.
  std::unordered_map<uint32_t, Lane*> lanes_by_id_;
  // key -> queued request count, kept in sync by Admit/PopBatch. Counts
  // stay at zero rather than being erased, so a key's entry is allocated
  // once per queue, not once per request.
  std::unordered_map<uint64_t, size_t> key_depth_;
  // Rotation resumes at the first non-empty lane at or after this index
  // (wrapping): the index just past every lane whose name sorts at or
  // before the previous pick's name (before any pick, 0).
  // The sorted insert of a lane that sorts at or before that name shifts
  // it by one.
  size_t rotation_ = 0;
  size_t size_ = 0;
};

}  // namespace flo

#endif  // SRC_SERVE_REQUEST_QUEUE_H_
