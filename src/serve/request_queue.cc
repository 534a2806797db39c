#include "src/serve/request_queue.h"

#include <algorithm>
#include <utility>

#include "src/serve/tenant_registry.h"
#include "src/util/check.h"

namespace flo {

RequestQueue::RequestQueue(Keyer keyer) : keyer_(std::move(keyer)) {
  FLO_CHECK(keyer_ != nullptr);
}

void RequestQueue::Ring::push_back(ServeRequest&& request, uint64_t key) {
  if (size_ == slots_.size()) {
    // Full (or never used): double, unrolling the live window to slot 0.
    std::vector<KeyedRequest> grown(std::max<size_t>(4, 2 * slots_.size()));
    for (size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(grown);
    head_ = 0;
  }
  KeyedRequest& slot = slots_[(head_ + size_) & (slots_.size() - 1)];
  slot.request = std::move(request);
  slot.key = key;
  ++size_;
}

RequestQueue::Lane& RequestQueue::LaneFor(ServeRequest* request) {
  if (request->tenant_id == 0) {
    request->tenant_id = InternTenant(request->tenant);  // hand-built request
  }
  // A caller-set id must name the request's tenant: lanes are ordered by
  // name and found by id, so a mismatch would merge two tenants into one
  // lane (checked against the found lane) or split one into two (checked
  // against the registry when the lane is created).
  const auto it = lanes_by_id_.find(request->tenant_id);
  if (it != lanes_by_id_.end()) {
    FLO_CHECK(it->second->tenant == request->tenant)
        << "tenant id " << request->tenant_id << " names \"" << it->second->tenant
        << "\", not \"" << request->tenant << "\"";
    return *it->second;
  }
  FLO_CHECK(TenantNameOf(request->tenant_id) == request->tenant)
      << "tenant id " << request->tenant_id << " names \"" << TenantNameOf(request->tenant_id)
      << "\", not \"" << request->tenant << "\"";
  auto lane = std::make_unique<Lane>();
  lane->tenant = request->tenant;
  lane->tenant_id = request->tenant_id;
  Lane* raw = lane.get();
  // Sorted insert keeps rotation alphabetical; new tenants are rare.
  const auto pos = std::lower_bound(
      lanes_.begin(), lanes_.end(), lane,
      [](const std::unique_ptr<Lane>& a, const std::unique_ptr<Lane>& b) {
        return a->tenant < b->tenant;
      });
  // A lane sorting at or before the previous pick lands before the
  // rotation point (names are never empty, so before any pick none does).
  if (static_cast<size_t>(pos - lanes_.begin()) < rotation_) {
    ++rotation_;
  }
  lanes_.insert(pos, std::move(lane));
  lanes_by_id_.emplace(request->tenant_id, raw);
  return *raw;
}

void RequestQueue::Admit(ServeRequest request) {
  const uint64_t key = keyer_(request.spec);  // before the move below
  Admit(std::move(request), key);
}

void RequestQueue::Admit(ServeRequest&& request, uint64_t key) {
  Lane& lane = LaneFor(&request);
  lane.queue.push_back(std::move(request), key);
  ++key_depth_[key];
  ++size_;
}

size_t RequestQueue::TenantDepth(const std::string& tenant) const {
  const auto it = std::lower_bound(
      lanes_.begin(), lanes_.end(), tenant,
      [](const std::unique_ptr<Lane>& lane, const std::string& name) {
        return lane->tenant < name;
      });
  return it != lanes_.end() && (*it)->tenant == tenant ? (*it)->queue.size() : 0;
}

size_t RequestQueue::KeyDepth(uint64_t key) const {
  const auto it = key_depth_.find(key);
  return it == key_depth_.end() ? 0 : it->second;
}

std::vector<std::string> RequestQueue::Tenants() const {
  std::vector<std::string> tenants;
  tenants.reserve(lanes_.size());
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    tenants.push_back(lane->tenant);
  }
  return tenants;
}

size_t RequestQueue::NextLaneIndex() const {
  FLO_CHECK(!empty());
  if (picker_ != nullptr) {
    heads_scratch_.clear();
    for (size_t index = 0; index < lanes_.size(); ++index) {
      const Lane& lane = *lanes_[index];
      if (lane.queue.empty()) {
        continue;
      }
      heads_scratch_.push_back(LaneHead{&lane.tenant, lane.tenant_id,
                                        lane.queue.front().key,
                                        lane.queue.front().request.arrival_us,
                                        lane.queue.size(), index});
    }
    const size_t pick = picker_(heads_scratch_);
    FLO_CHECK_LT(pick, heads_scratch_.size());
    return heads_scratch_[pick].lane_index;
  }
  // First non-empty lane strictly after the last choice, wrapping.
  for (size_t step = 0, index = rotation_; step < lanes_.size(); ++step, ++index) {
    if (index >= lanes_.size()) {
      index -= lanes_.size();
    }
    if (!lanes_[index]->queue.empty()) {
      return index;
    }
  }
  FLO_CHECK(false) << "non-empty queue with no poppable tenant";
  return 0;  // unreachable
}

uint64_t RequestQueue::PeekKey() const {
  return lanes_[NextLaneIndex()]->queue.front().key;
}

RequestQueue::BatchPreview RequestQueue::PreviewBatch(int max_batch) const {
  if (empty()) {
    return BatchPreview{};
  }
  return PreviewAt(NextLaneIndex(), max_batch);
}

void RequestQueue::PreviewLanes(int max_batch, std::vector<BatchPreview>* out) const {
  FLO_CHECK(out != nullptr);
  out->clear();
  for (size_t index = 0; index < lanes_.size(); ++index) {
    if (!lanes_[index]->queue.empty()) {
      out->push_back(PreviewAt(index, max_batch));
    }
  }
}

RequestQueue::BatchPreview RequestQueue::PreviewAt(size_t chosen, int max_batch) const {
  FLO_CHECK_GT(max_batch, 0);
  BatchPreview preview;
  preview.key = lanes_[chosen]->queue.front().key;
  preview.tenant_id = lanes_[chosen]->tenant_id;
  const size_t cap = static_cast<size_t>(max_batch);
  // Mirror PopBatchInto's gather — the chosen lane's same-key run, then
  // the other lanes' same-key head runs in rotation order — by walking
  // the lanes without popping.
  auto scan = [&](const Ring& queue) {
    for (size_t i = 0; i < queue.size(); ++i) {
      const KeyedRequest& pending = queue[i];
      if (pending.key != preview.key || preview.size >= cap) {
        break;
      }
      if (preview.size == 0 || pending.request.arrival_us < preview.oldest_arrival_us) {
        preview.oldest_arrival_us = pending.request.arrival_us;
      }
      ++preview.size;
    }
  };
  scan(lanes_[chosen]->queue);
  for (size_t i = chosen + 1; i < lanes_.size(); ++i) {
    scan(lanes_[i]->queue);
  }
  for (size_t i = 0; i < chosen; ++i) {
    scan(lanes_[i]->queue);
  }
  return preview;
}

size_t RequestQueue::DrainInto(std::vector<KeyedRequest>* out) {
  FLO_CHECK(out != nullptr);
  size_t drained = 0;
  for (const std::unique_ptr<Lane>& lane : lanes_) {
    while (!lane->queue.empty()) {
      out->push_back(std::move(lane->queue.front()));
      lane->queue.pop_front();
      ++drained;
    }
  }
  for (auto& [key, depth] : key_depth_) {
    depth = 0;
  }
  size_ = 0;
  return drained;
}

std::vector<ServeRequest> RequestQueue::PopBatch(int max_batch, uint64_t* batch_key) {
  std::vector<ServeRequest> batch;
  const uint64_t key = PopBatchInto(max_batch, &batch);
  if (batch_key != nullptr) {
    *batch_key = key;
  }
  return batch;
}

uint64_t RequestQueue::PopBatchInto(int max_batch, std::vector<ServeRequest>* out) {
  FLO_CHECK_GT(max_batch, 0);
  FLO_CHECK(out != nullptr);
  out->clear();
  if (empty()) {
    return 0;
  }
  return PopAt(NextLaneIndex(), max_batch, out);
}

uint64_t RequestQueue::PopLaneBatchInto(uint32_t tenant_id, int max_batch,
                                        std::vector<ServeRequest>* out) {
  FLO_CHECK_GT(max_batch, 0);
  FLO_CHECK(out != nullptr);
  out->clear();
  for (size_t index = 0; index < lanes_.size(); ++index) {
    if (lanes_[index]->tenant_id == tenant_id && !lanes_[index]->queue.empty()) {
      return PopAt(index, max_batch, out);
    }
  }
  FLO_CHECK(false) << "no queued lane for tenant id " << tenant_id;
  return 0;  // unreachable
}

uint64_t RequestQueue::PopAt(size_t chosen, int max_batch, std::vector<ServeRequest>* out) {
  // Resume after the chosen lane's name (lane names are distinct).
  rotation_ = chosen + 1;
  const uint64_t key = lanes_[chosen]->queue.front().key;
  size_t& depth = key_depth_.find(key)->second;
  // The chosen tenant's consecutive same-key run first, then the other
  // tenants' same-key head runs in rotation order.
  auto drain = [&](Ring* queue) {
    while (!queue->empty() && queue->front().key == key &&
           out->size() < static_cast<size_t>(max_batch)) {
      out->push_back(std::move(queue->front().request));
      queue->pop_front();
      --depth;
      --size_;
    }
  };
  drain(&lanes_[chosen]->queue);
  for (size_t i = chosen + 1; i < lanes_.size(); ++i) {
    drain(&lanes_[i]->queue);
  }
  for (size_t i = 0; i < chosen; ++i) {
    drain(&lanes_[i]->queue);
  }
  return key;
}

}  // namespace flo
