#include "src/core/plan_store.h"

#include <charconv>
#include <cmath>
#include <limits>
#include <string_view>
#include <utility>

#include "src/obs/metrics.h"
#include "src/util/check.h"
#include "src/util/file.h"
#include "src/util/table.h"

namespace flo {
namespace {

// The snapshot codec. Each line kind (grammar in plan_store.h) is one
// field list, a template over an Io: LineWriter walks it to append
// the line, LineReader walks it to read the line back. A field type has
// one spelling, LineWriter's, and LineReader accepts a line only when
// LineWriter, given the values read, writes that line back, so whatever
// parses re-exports as the same bytes.

// Whether `line` starts with `tag`, then a space.
bool Tagged(std::string_view line, std::string_view tag) {
  return line.size() > tag.size() && line.starts_with(tag) && line[tag.size()] == ' ';
}

// Appends the tag, then each field after one space: a 16-digit lower-case
// hex key, a decimal integer, a %.17g double, comma-separated integers or
// an enum name. End() writes the newline. Lower bounds are the reader's.
class LineWriter {
 public:
  explicit LineWriter(std::string* out) : out_(out) {}

  bool Begin(std::string_view tag) {
    out_->append(tag);
    return true;
  }
  bool Key(uint64_t key) {
    char digits[16];
    for (int i = 15; i >= 0; --i, key >>= 4) {
      digits[i] = "0123456789abcdef"[key & 0xf];
    }
    return Field(std::string_view(digits, sizeof(digits)));
  }
  template <typename T>
  bool Int(T value, T /*min*/ = T()) {
    out_->push_back(' ');
    return Append(value);
  }
  bool Double(double value) { return Field(FormatDoubleExact(value)); }
  bool Ints(const std::vector<int>& values, int /*min*/ = 0) {
    out_->push_back(' ');
    for (size_t i = 0; i < values.size(); ++i) {
      if (i != 0) {
        out_->push_back(',');
      }
      Append(values[i]);
    }
    return true;
  }
  bool Name(ScenarioKind kind) { return Field(ScenarioKindName(kind)); }
  bool Name(CommPrimitive primitive) { return Field(CommPrimitiveName(primitive)); }
  bool End() {
    out_->push_back('\n');
    return true;
  }
  template <typename Row, typename Line>
  bool Each(const std::vector<Row>& rows, Line line) {
    for (const Row& row : rows) {
      line(row);
    }
    return true;
  }

 private:
  bool Field(std::string_view text) {
    out_->push_back(' ');
    out_->append(text);
    return true;
  }
  template <typename T>
  bool Append(T value) {
    char buffer[24];
    out_->append(buffer, std::to_chars(buffer, buffer + sizeof(buffer), value).ptr);
    return true;
  }

  std::string* out_;
};

// Reads the lines of `text` that `visit` selects, field by field: each
// field decodes its token and echoes the value through a LineWriter, and
// End() accepts the line only when the echo is the line. A Begin() whose
// tag does not match is no failure (Each() stops there); any other
// mismatch is.
class LineReader {
 public:
  LineReader(std::string_view text, bool (*visit)(std::string_view))
      : rest_(text), visit_(visit) {
    Next();
  }

  bool done() const { return done_; }

  bool Begin(std::string_view tag) {
    if (done_ || !(line_ == tag || Tagged(line_, tag))) {
      return false;
    }
    pos_ = tag.size();
    echo_.clear();
    return Echo().Begin(tag);
  }
  bool Key(uint64_t& key) { return Check(Decode(Token(), key, 16)) && Echo().Key(key); }
  template <typename T>
  bool Int(T& value, T min = std::numeric_limits<T>::lowest()) {
    return Check(Decode(Token(), value) && value >= min) && Echo().Int(value);
  }
  bool Double(double& value) {
    return Check(Decode(Token(), value) && std::isfinite(value)) && Echo().Double(value);
  }
  bool Ints(std::vector<int>& values, int min = std::numeric_limits<int>::lowest()) {
    const std::string_view token = Token();
    values.clear();
    for (size_t start = 0; start <= token.size();) {
      const size_t comma = std::min(token.find(',', start), token.size());
      if (!Check(Decode(token.substr(start, comma - start), values.emplace_back()) &&
                 values.back() >= min)) {
        return false;
      }
      start = comma + 1;
    }
    return Echo().Ints(values);
  }
  bool Name(ScenarioKind& kind) { return Named(TryScenarioKindFromName, kind); }
  bool Name(CommPrimitive& primitive) { return Named(TryCommPrimitiveFromName, primitive); }
  bool End() {
    if (!Check(echo_ == line_)) {
      return false;
    }
    Next();
    return true;
  }
  // Reads rows while the current line has the row's tag.
  template <typename Row, typename Line>
  bool Each(std::vector<Row>& rows, Line line) {
    while (line(rows.emplace_back())) {
    }
    rows.pop_back();
    return !failed_;
  }

 private:
  void Next() {
    while (!rest_.empty()) {
      const size_t end = std::min(rest_.find('\n'), rest_.size());
      line_ = rest_.substr(0, end);
      rest_.remove_prefix(std::min(end + 1, rest_.size()));
      if (visit_(line_)) {
        return;
      }
    }
    done_ = true;
  }
  // The text after the space at the current position, up to the next
  // space or the end of the line.
  std::string_view Token() {
    const size_t start = std::min(pos_ + 1, line_.size());
    pos_ = std::min(line_.find(' ', start), line_.size());
    return line_.substr(start, pos_ - start);
  }
  template <typename T, typename... Base>
  static bool Decode(std::string_view token, T& value, Base... base) {
    const char* last = token.data() + token.size();
    const auto [end, error] = std::from_chars(token.data(), last, value, base...);
    return error == std::errc() && end == last;
  }
  template <typename Parse, typename T>
  bool Named(Parse parse, T& value) {
    const auto parsed = parse(std::string(Token()));
    if (parsed.has_value()) {
      value = *parsed;
    }
    return Check(parsed.has_value()) && Echo().Name(value);
  }
  LineWriter Echo() { return LineWriter(&echo_); }
  bool Check(bool ok) {
    failed_ = failed_ || !ok;
    return ok;
  }

  std::string_view rest_;
  bool (*visit_)(std::string_view);
  std::string_view line_;
  size_t pos_ = 0;
  bool done_ = false;
  bool failed_ = false;
  std::string echo_;
};

// The line kinds: each one's tag and fields, in order.

template <typename Io, typename Key, typename Plan>
bool PlanLine(Io& io, Key& key, Plan& plan) {
  return io.Begin("plan") && io.Key(key) && io.Name(plan.kind) && io.Name(plan.primitive) &&
         io.Ints(plan.partition.group_sizes, 1) && io.Double(plan.predicted_us) &&
         io.Double(plan.predicted_non_overlap_us) && io.End();
}

template <typename Io, typename Tiles>
bool TilesLine(Io& io, Tiles& tiles) {
  return io.Begin("tiles") && io.Ints(tiles) && io.End();
}

template <typename Io, typename Segment>
bool SegLine(Io& io, Segment& segment) {
  return io.Begin("seg") && io.Int(segment.group) && io.Double(segment.max_bytes) &&
         io.Double(segment.latency_us) && io.End();
}

template <typename Io>
bool EndLine(Io& io) {
  return io.Begin("end") && io.End();
}

constexpr std::string_view kTunerTag = "#tuner";

template <typename Io, typename Key, typename Plan>
bool TunerLine(Io& io, Key& key, Plan& plan) {
  return io.Begin(kTunerTag) && io.Key(key) && io.Int(plan.shape.m, int64_t{1}) &&
         io.Int(plan.shape.n, int64_t{1}) && io.Int(plan.shape.k, int64_t{1}) &&
         io.Name(plan.primitive) && io.Ints(plan.partition.group_sizes, 1) &&
         io.Double(plan.predicted_us) && io.Double(plan.predicted_non_overlap_us) && io.End();
}

template <typename Io, typename Count>
bool CountLine(Io& io, std::string_view tag, Count& count) {
  return io.Begin(tag) && io.Int(count) && io.End();
}

// A snapshot's two tiers: which lines hold their records, their count
// footer's tag, and the lines of one record.
struct PlanTier {
  using Value = ExecutionPlan;
  static constexpr std::string_view kCountTag = "# count";
  static bool IsRecordLine(std::string_view line) { return !line.empty() && line[0] != '#'; }
  template <typename Io, typename Key, typename Plan>
  static bool Record(Io& io, Key& key, Plan& plan) {
    return PlanLine(io, key, plan) &&
           io.Each(plan.group_tiles, [&io](auto& tiles) { return TilesLine(io, tiles); }) &&
           io.Each(plan.segments, [&io](auto& segment) { return SegLine(io, segment); }) &&
           EndLine(io);
  }
};

struct TunerTier {
  using Value = StoredPlan;
  static constexpr std::string_view kCountTag = "#tuner-count";
  static bool IsRecordLine(std::string_view line) { return Tagged(line, kTunerTag); }
  template <typename Io, typename Key, typename Plan>
  static bool Record(Io& io, Key& key, Plan& plan) {
    return TunerLine(io, key, plan);
  }
};

// A written entry's record value: a store entry's plan, or a tuner record.
const ExecutionPlan& RecordOf(const PlanStore::Entry& entry) { return *entry.plan; }
const StoredPlan& RecordOf(const StoredPlan& plan) { return plan; }

// Appends a tier's records in the entries' order, then its count footer.
template <typename Tier, typename Entries>
void WriteTier(std::string* out, const Entries& entries) {
  LineWriter writer(out);
  for (const auto& [key, value] : entries) {
    Tier::Record(writer, key, RecordOf(value));
  }
  const size_t count = entries.size();
  CountLine(writer, Tier::kCountTag, count);
}

// A tier's records in text order, or std::nullopt when a record is
// malformed, its key is not greater than the previous record's, or a count
// footer disagrees with the number of records.
template <typename Tier>
std::optional<std::vector<std::pair<uint64_t, typename Tier::Value>>> ReadTier(
    std::string_view text) {
  std::vector<std::pair<uint64_t, typename Tier::Value>> entries;
  for (LineReader records(text, Tier::IsRecordLine); !records.done();) {
    auto& [key, value] = entries.emplace_back();
    if (!Tier::Record(records, key, value) ||
        (entries.size() > 1 && key <= entries[entries.size() - 2].first)) {
      return std::nullopt;
    }
  }
  const auto is_count_line = [](std::string_view line) { return Tagged(line, Tier::kCountTag); };
  for (LineReader counts(text, is_count_line); !counts.done();) {
    size_t count = 0;
    if (!CountLine(counts, Tier::kCountTag, count) || count != entries.size()) {
      return std::nullopt;
    }
  }
  return entries;
}

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

}  // namespace

PlanStore::PlanStore(const PlanStore& other) {
  std::lock_guard<std::mutex> lock(other.mu_);
  capacity_ = other.capacity_;
  entries_ = other.entries_;
  use_clock_ = other.use_clock_;
  stats_ = other.stats_;
}

PlanStore::PlanStore(PlanStore&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.mu_);
  capacity_ = other.capacity_;
  entries_ = std::move(other.entries_);
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
  entries_ = std::move(copy.entries_);
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
  entries_ = std::move(other.entries_);
  use_clock_ = other.use_clock_;
  stats_ = other.stats_;
  return *this;
}

const PlanStore::Entry* PlanStore::LookupLocked(uint64_t key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  it->second.last_use = ++use_clock_;
  return &it->second;
}

void PlanStore::EnforceCapacityLocked() {
  while (capacity_ != 0 && entries_.size() > capacity_) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    const uint64_t key = victim->first;
    entries_.erase(victim);
    ++stats_.evictions;
    if (on_change_) {
      on_change_(key, false);
    }
  }
}

PlanStore::Handle PlanStore::Find(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Entry* entry = LookupLocked(key);
  return entry == nullptr ? nullptr : entry->plan;
}

bool PlanStore::Touch(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return LookupLocked(key) != nullptr;
}

std::optional<ExecutionPlan> PlanStore::FindCopy(uint64_t key) const {
  const Handle plan = Find(key);
  return plan == nullptr ? std::nullopt : std::optional<ExecutionPlan>(*plan);
}

PlanStore::Handle PlanStore::Put(uint64_t key, Handle plan) {
  FLO_CHECK(plan != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = entries_.insert_or_assign(key, Entry{std::move(plan), ++use_clock_});
  if (inserted) {
    if (on_change_) {
      on_change_(key, true);
    }
    // The fresh entry holds the max use tick, so eviction can never pick
    // it: `it` stays valid.
    EnforceCapacityLocked();
  }
  return it->second.plan;
}

PlanStore::Handle PlanStore::Put(uint64_t key, ExecutionPlan plan) {
  return Put(key, std::make_shared<const ExecutionPlan>(std::move(plan)));
}

bool PlanStore::Contains(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(key) != 0;
}

PlanStore::Handle PlanStore::Peek(uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : it->second.plan;
}

bool PlanStore::Erase(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.erase(key) == 0) {
    return false;
  }
  if (on_change_) {
    on_change_(key, false);
  }
  return true;
}

size_t PlanStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void PlanStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  if (on_change_) {
    for (const auto& entry : entries_) {
      on_change_(entry.first, false);
    }
  }
  entries_.clear();
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
std::string PlanStore::Serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "# FlashOverlap execution plans: keyed by canonical scenario hash\n";
  WriteTier<PlanTier>(&out, entries_);
  return out;
}

std::optional<PlanStore> PlanStore::Parse(const std::string& text) {
  auto records = ReadTier<PlanTier>(text);
  if (!records.has_value()) {
    return std::nullopt;
  }
  PlanStore store;
  for (auto& [key, plan] : *records) {
    if (!StructurallyValid(plan)) {
      return std::nullopt;
    }
    store.Put(key, std::move(plan));
  }
  return store;
}

bool PlanStore::SaveToFile(const std::string& path) const {
  return WriteStringToFile(path, Serialize());
}

std::optional<PlanStore> PlanStore::LoadFromFile(const std::string& path) {
  const std::optional<std::string> text = ReadFileToString(path);
  if (!text.has_value()) {
    return std::nullopt;
  }
  return Parse(*text);
}

std::string SerializeTunerTier(const std::vector<std::pair<uint64_t, StoredPlan>>& plans) {
  std::string out;
  WriteTier<TunerTier>(&out, plans);
  return out;
}

std::optional<std::vector<std::pair<uint64_t, StoredPlan>>> ParseTunerTier(
    const std::string& text) {
  return ReadTier<TunerTier>(text);
}

}  // namespace flo
