#include "src/core/plan_store.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "src/obs/metrics.h"
#include "src/util/check.h"
#include "src/util/file.h"
#include "src/util/logging.h"
#include "src/util/parse.h"
#include "src/util/table.h"

namespace flo {
namespace {

// 16 lower-case hex digits, as "%016llx" writes them.
std::string KeyToken(uint64_t key) {
  std::string token(16, '0');
  for (size_t i = token.size(); i-- > 0; key >>= 4) {
    token[i] = "0123456789abcdef"[key & 0xf];
  }
  return token;
}

// Each value parses only when spelled exactly as the serializers write it
// (no sign or leading zeros on an integer, a 16-digit lower-case key, a
// %.17g double), so every record that parses re-exports as the same bytes.
template <typename T, typename Format>
std::optional<T> IfCanonical(const std::string& text, std::optional<T> value, Format format) {
  if (!value || format(*value) != text) {
    return std::nullopt;
  }
  return value;
}

std::optional<int> CanonicalInt(const std::string& text) {
  return IfCanonical(text, TryParseInt(text), [](int v) { return std::to_string(v); });
}

std::optional<int64_t> CanonicalInt64(const std::string& text) {
  return IfCanonical(text, TryParseInt64(text), [](int64_t v) { return std::to_string(v); });
}

std::optional<uint64_t> CanonicalKey(const std::string& text) {
  return IfCanonical(text, TryParseHexU64(text), KeyToken);
}

std::optional<double> CanonicalDouble(const std::string& text) {
  return IfCanonical(text, TryParseDouble(text), FormatDoubleExact);
}

std::string PartitionToCsv(const WavePartition& partition) {
  std::string out;
  for (size_t i = 0; i < partition.group_sizes.size(); ++i) {
    if (i != 0) {
      out += ',';
    }
    out += std::to_string(partition.group_sizes[i]);
  }
  return out;
}

// Splits `text` at every `separator`: a record line at single spaces, a
// CSV field at commas. Empty when any field is empty (a doubled separator,
// or one at either end): no serializer writes one, and accepting it would
// re-export different bytes. Only the separator splits, so a tab or a
// trailing '\r' stays inside a field and fails that field's parse.
std::vector<std::string> SplitFields(const std::string& text, char separator) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    const size_t end = text.find(separator, start);
    fields.push_back(text.substr(start, end - start));
    if (fields.back().empty()) {
      return {};
    }
    if (end == std::string::npos) {
      return fields;
    }
    start = end + 1;
  }
}

// Splits "a,b,c" into ints, each spelled canonically.
std::optional<std::vector<int>> IntsFromCsv(const std::string& text) {
  std::vector<int> values;
  for (const std::string& field : SplitFields(text, ',')) {
    const auto value = CanonicalInt(field);
    if (!value) {
      return std::nullopt;
    }
    values.push_back(*value);
  }
  if (values.empty()) {
    return std::nullopt;
  }
  return values;
}

std::optional<WavePartition> PartitionFromCsv(const std::string& text) {
  auto sizes = IntsFromCsv(text);
  if (!sizes) {
    return std::nullopt;
  }
  for (const int size : *sizes) {
    if (size <= 0) {
      return std::nullopt;
    }
  }
  return WavePartition{std::move(*sizes)};
}

}  // namespace

PlanStore::PlanStore(const PlanStore& other) {
  std::lock_guard<std::mutex> lock(other.mu_);
  capacity_ = other.capacity_;
  plans_ = other.plans_;
  last_use_ = other.last_use_;
  use_clock_ = other.use_clock_;
  stats_ = other.stats_;
}

PlanStore::PlanStore(PlanStore&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.mu_);
  capacity_ = other.capacity_;
  plans_ = std::move(other.plans_);
  last_use_ = std::move(other.last_use_);
  use_clock_ = other.use_clock_;
  stats_ = other.stats_;
}

PlanStore& PlanStore::operator=(const PlanStore& other) {
  if (this == &other) {
    return *this;
  }
  PlanStore copy(other);
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = copy.capacity_;
  plans_ = std::move(copy.plans_);
  last_use_ = std::move(copy.last_use_);
  use_clock_ = copy.use_clock_;
  stats_ = copy.stats_;
  return *this;
}

PlanStore& PlanStore::operator=(PlanStore&& other) noexcept {
  if (this == &other) {
    return *this;
  }
  std::scoped_lock lock(mu_, other.mu_);
  capacity_ = other.capacity_;
  plans_ = std::move(other.plans_);
  last_use_ = std::move(other.last_use_);
  use_clock_ = other.use_clock_;
  stats_ = other.stats_;
  return *this;
}

void PlanStore::TouchLocked(uint64_t key) const { last_use_[key] = ++use_clock_; }

void PlanStore::EnforceCapacityLocked() {
  while (capacity_ != 0 && plans_.size() > capacity_) {
    auto victim = last_use_.begin();
    for (auto it = last_use_.begin(); it != last_use_.end(); ++it) {
      if (it->second < victim->second) {
        victim = it;
      }
    }
    const uint64_t key = victim->first;
    plans_.erase(key);
    last_use_.erase(victim);
    ++stats_.evictions;
    if (on_change_) {
      on_change_(key, false);
    }
  }
}

const ExecutionPlan* PlanStore::Find(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = plans_.find(key);
  if (it == plans_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  TouchLocked(key);
  return &it->second;
}

bool PlanStore::Touch(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (plans_.count(key) == 0) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  TouchLocked(key);
  return true;
}

std::optional<ExecutionPlan> PlanStore::FindCopy(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = plans_.find(key);
  if (it == plans_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  TouchLocked(key);
  return it->second;
}

const ExecutionPlan& PlanStore::Put(uint64_t key, ExecutionPlan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = plans_.insert_or_assign(key, std::move(plan));
  TouchLocked(key);
  if (inserted) {
    if (on_change_) {
      on_change_(key, true);
    }
    // The fresh entry holds the max use tick, so eviction can never pick
    // it: the returned reference stays valid.
    EnforceCapacityLocked();
  }
  return it->second;
}

bool PlanStore::Contains(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return plans_.count(key) != 0;
}

std::optional<double> PlanStore::PeekPredictedUs(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = plans_.find(key);
  if (it == plans_.end()) {
    return std::nullopt;
  }
  return it->second.predicted_us;
}

bool PlanStore::Erase(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  last_use_.erase(key);
  if (plans_.erase(key) == 0) {
    return false;
  }
  if (on_change_) {
    on_change_(key, false);
  }
  return true;
}

size_t PlanStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return plans_.size();
}

void PlanStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  if (on_change_) {
    for (const auto& entry : plans_) {
      on_change_(entry.first, false);
    }
  }
  plans_.clear();
  last_use_.clear();
}

size_t PlanStore::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void PlanStore::set_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  EnforceCapacityLocked();
}

void PlanStore::SetChangeCallback(ChangeCallback on_change) {
  std::lock_guard<std::mutex> lock(mu_);
  on_change_ = std::move(on_change);
}

PlanStoreStats PlanStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void PlanStore::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = PlanStoreStats{};
}

void PlanStore::ExportMetrics(MetricsRegistry* registry) const {
  const PlanStoreStats snapshot = stats();
  registry->Set(registry->Gauge("plan_store.hits"), static_cast<double>(snapshot.hits));
  registry->Set(registry->Gauge("plan_store.misses"), static_cast<double>(snapshot.misses));
  registry->Set(registry->Gauge("plan_store.evictions"),
                static_cast<double>(snapshot.evictions));
  registry->Set(registry->Gauge("plan_store.resident"), static_cast<double>(size()));
}

namespace {

// A loadable plan must be internally consistent, not just syntactically
// valid: the executor FLO_CHECKs would otherwise abort the process on the
// first Execute against a hand-edited or bit-rotted record.
bool StructurallyValid(const ExecutionPlan& plan) {
  if (plan.group_tiles.empty()) {
    return false;
  }
  const size_t group_count = plan.group_tiles[0].size();
  if (group_count == 0 || plan.segments.size() != group_count) {
    return false;
  }
  for (const auto& tiles : plan.group_tiles) {
    if (tiles.size() != group_count) {
      return false;
    }
    for (int count : tiles) {
      if (count <= 0) {
        return false;
      }
    }
  }
  for (size_t g = 0; g < plan.segments.size(); ++g) {
    const CommSegment& segment = plan.segments[g];
    if (segment.group != static_cast<int>(g) || segment.max_bytes < 0.0 ||
        segment.latency_us < 0.0) {
      return false;
    }
  }
  return true;
}

// One multi-line record in the store's text format.
void AppendRecord(std::ostringstream& out, uint64_t key, const ExecutionPlan& plan) {
  out << "plan " << KeyToken(key) << ' ' << ScenarioKindName(plan.kind) << ' '
      << CommPrimitiveName(plan.primitive) << ' ' << PartitionToCsv(plan.partition) << ' '
      << FormatDoubleExact(plan.predicted_us) << ' ' << FormatDoubleExact(plan.predicted_non_overlap_us)
      << '\n';
  for (const auto& tiles : plan.group_tiles) {
    out << "tiles ";
    for (size_t g = 0; g < tiles.size(); ++g) {
      out << (g == 0 ? "" : ",") << tiles[g];
    }
    out << "\n";
  }
  for (const auto& segment : plan.segments) {
    out << "seg " << segment.group << ' ' << FormatDoubleExact(segment.max_bytes) << ' '
        << FormatDoubleExact(segment.latency_us) << '\n';
  }
  out << "end\n";
}

}  // namespace

std::string PlanStore::Serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "# FlashOverlap execution plans: keyed by canonical scenario hash\n";
  for (const auto& [key, plan] : plans_) {
    AppendRecord(out, key, plan);
  }
  // Trailing record-count footer. Syntactically a comment (older parsers
  // skip it); Parse validates it when present, so a snapshot truncated at
  // a record boundary — every record intact, some missing — is rejected
  // whole instead of silently importing a subset.
  out << "# count " << plans_.size() << '\n';
  return out.str();
}

std::optional<std::string> PlanStore::ExportRecord(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = plans_.find(key);
  if (it == plans_.end()) {
    return std::nullopt;
  }
  std::ostringstream out;
  AppendRecord(out, key, it->second);
  return out.str();
}

size_t PlanStore::ImportRecords(const std::string& text) {
  // Parse into a scratch store first so a malformed shipment applies
  // nothing (and holds no lock while parsing).
  std::optional<PlanStore> parsed = Parse(text);
  if (!parsed.has_value()) {
    FLO_LOG(kError) << "plan import rejected: malformed or truncated record text ("
                    << text.size() << " bytes); store untouched";
    return 0;
  }
  const size_t imported = parsed->plans_.size();
  for (auto& [key, plan] : parsed->plans_) {
    Put(key, std::move(plan));
  }
  return imported;
}

std::optional<PlanStore> PlanStore::Parse(const std::string& text) {
  PlanStore store;
  std::stringstream stream(text);
  std::string line;
  bool in_record = false;
  uint64_t key = 0;
  size_t records = 0;
  // Declared record count from a "# count N" footer, when one is present
  // (snapshots written by Serialize carry it; hand-written record text and
  // single-record shipments need not).
  std::optional<size_t> declared_count;
  ExecutionPlan plan;
  while (std::getline(stream, line)) {
    if (line.empty() || line[0] == '#') {
      constexpr const char kCountTag[] = "# count ";
      if (line.rfind(kCountTag, 0) == 0) {
        const auto parsed = CanonicalInt(line.substr(sizeof(kCountTag) - 1));
        if (!parsed || *parsed < 0) {
          return std::nullopt;
        }
        declared_count = static_cast<size_t>(*parsed);
      }
      continue;
    }
    // A record line is its tag and exactly its fields, one space apart.
    const std::vector<std::string> fields = SplitFields(line, ' ');
    if (fields.empty()) {
      return std::nullopt;
    }
    const std::string& tag = fields[0];
    if (tag == "plan") {
      if (in_record || fields.size() != 7) {
        return std::nullopt;  // previous record never closed, or malformed
      }
      const auto parsed_key = CanonicalKey(fields[1]);
      if (!parsed_key) {
        return std::nullopt;
      }
      key = *parsed_key;
      const auto parsed_predicted = CanonicalDouble(fields[5]);
      const auto parsed_non_overlap = CanonicalDouble(fields[6]);
      if (!parsed_predicted || !parsed_non_overlap) {
        return std::nullopt;
      }
      plan.predicted_us = *parsed_predicted;
      plan.predicted_non_overlap_us = *parsed_non_overlap;
      const auto parsed_kind = TryScenarioKindFromName(fields[2]);
      const auto parsed_primitive = TryCommPrimitiveFromName(fields[3]);
      const auto parsed_partition = PartitionFromCsv(fields[4]);
      if (!parsed_kind || !parsed_primitive || !parsed_partition) {
        return std::nullopt;
      }
      plan.kind = *parsed_kind;
      plan.primitive = *parsed_primitive;
      plan.partition = std::move(*parsed_partition);
      in_record = true;
    } else if (tag == "tiles") {
      if (!in_record || fields.size() != 2) {
        return std::nullopt;
      }
      auto tiles = IntsFromCsv(fields[1]);
      if (!tiles) {
        return std::nullopt;
      }
      plan.group_tiles.push_back(std::move(*tiles));
    } else if (tag == "seg") {
      if (!in_record || fields.size() != 4) {
        return std::nullopt;
      }
      const auto parsed_group = CanonicalInt(fields[1]);
      const auto parsed_bytes = CanonicalDouble(fields[2]);
      const auto parsed_latency = CanonicalDouble(fields[3]);
      if (!parsed_group || !parsed_bytes || !parsed_latency) {
        return std::nullopt;
      }
      CommSegment segment;
      segment.group = *parsed_group;
      segment.max_bytes = *parsed_bytes;
      segment.latency_us = *parsed_latency;
      plan.segments.push_back(segment);
    } else if (tag == "end") {
      if (!in_record || fields.size() != 1 || !StructurallyValid(plan)) {
        return std::nullopt;
      }
      store.Put(key, std::move(plan));
      ++records;
      plan = ExecutionPlan{};
      in_record = false;
    } else {
      return std::nullopt;
    }
  }
  if (in_record) {
    return std::nullopt;
  }
  if (declared_count.has_value() && records != *declared_count) {
    // Truncated at a record boundary (or padded): the byte stream is
    // incomplete even though every surviving record parsed.
    return std::nullopt;
  }
  return store;
}

bool PlanStore::SaveToFile(const std::string& path) const {
  std::ofstream file(path);
  if (!file) {
    return false;
  }
  file << Serialize();
  return static_cast<bool>(file);
}

std::optional<PlanStore> PlanStore::LoadFromFile(const std::string& path) {
  const std::optional<std::string> text = ReadFileToString(path);
  if (!text.has_value()) {
    return std::nullopt;
  }
  return Parse(*text);
}

std::string SerializeTunerTier(const std::vector<std::pair<uint64_t, StoredPlan>>& plans) {
  std::ostringstream out;
  for (const auto& [key, plan] : plans) {
    out << "#tuner " << KeyToken(key) << ' ' << plan.shape.m << ' ' << plan.shape.n << ' '
        << plan.shape.k << ' ' << CommPrimitiveName(plan.primitive) << ' '
        << PartitionToCsv(plan.partition) << ' ' << FormatDoubleExact(plan.predicted_us)
        << ' ' << FormatDoubleExact(plan.predicted_non_overlap_us) << '\n';
  }
  out << "#tuner-count " << plans.size() << '\n';
  return out.str();
}

std::optional<std::vector<std::pair<uint64_t, StoredPlan>>> ParseTunerTier(
    const std::string& text) {
  std::vector<std::pair<uint64_t, StoredPlan>> plans;
  std::stringstream stream(text);
  std::string line;
  std::optional<size_t> declared_count;
  constexpr const char kRecordTag[] = "#tuner ";
  constexpr const char kCountTag[] = "#tuner-count ";
  while (std::getline(stream, line)) {
    if (line.rfind(kCountTag, 0) == 0) {
      const auto parsed = CanonicalInt(line.substr(sizeof(kCountTag) - 1));
      if (!parsed || *parsed < 0) {
        return std::nullopt;
      }
      declared_count = static_cast<size_t>(*parsed);
      continue;
    }
    if (line.rfind(kRecordTag, 0) != 0) {
      continue;  // plan-tier record or ordinary comment
    }
    const std::vector<std::string> fields =
        SplitFields(line.substr(sizeof(kRecordTag) - 1), ' ');
    if (fields.size() != 8) {
      return std::nullopt;
    }
    const auto parsed_key = CanonicalKey(fields[0]);
    const auto parsed_m = CanonicalInt64(fields[1]);
    const auto parsed_n = CanonicalInt64(fields[2]);
    const auto parsed_k = CanonicalInt64(fields[3]);
    if (!parsed_key || !parsed_m || !parsed_n || !parsed_k || *parsed_m <= 0 || *parsed_n <= 0 ||
        *parsed_k <= 0) {
      return std::nullopt;
    }
    StoredPlan plan;
    plan.shape = GemmShape{*parsed_m, *parsed_n, *parsed_k};
    const auto parsed_primitive = TryCommPrimitiveFromName(fields[4]);
    auto parsed_partition = PartitionFromCsv(fields[5]);
    const auto parsed_predicted = CanonicalDouble(fields[6]);
    const auto parsed_non_overlap = CanonicalDouble(fields[7]);
    if (!parsed_primitive || !parsed_partition || !parsed_predicted || !parsed_non_overlap) {
      return std::nullopt;
    }
    plan.primitive = *parsed_primitive;
    plan.partition = std::move(*parsed_partition);
    plan.predicted_us = *parsed_predicted;
    plan.predicted_non_overlap_us = *parsed_non_overlap;
    plans.emplace_back(*parsed_key, std::move(plan));
  }
  if (declared_count.has_value() && plans.size() != *declared_count) {
    return std::nullopt;
  }
  return plans;
}

}  // namespace flo
