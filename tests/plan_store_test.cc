#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/cluster/plan_shipping.h"
#include "src/cluster/serving_cluster.h"
#include "src/core/plan_store.h"
#include "src/core/tuner.h"
#include "src/serve/request_source.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace flo {
namespace {

std::vector<StoredPlan> SamplePlans() {
  return {
      StoredPlan{GemmShape{4096, 8192, 7168}, CommPrimitive::kAllReduce,
                 WavePartition{{1, 2, 4}}, 1234.5, 1670.25},
      StoredPlan{GemmShape{2048, 4096, 1024}, CommPrimitive::kAllToAll,
                 WavePartition{{2, 2}}, 99.125, 140.5},
  };
}

TEST(PlanStoreTest, LoadFromMissingFileFails) {
  EXPECT_FALSE(PlanStore::LoadFromFile("/nonexistent/flo_plans.txt").has_value());
}

// A minimal structurally valid ExecutionPlan (1 rank, 2 groups), keyed by
// a marker value so evicted/surviving entries are distinguishable.
ExecutionPlan MarkedPlan(int marker) {
  ExecutionPlan plan;
  plan.kind = ScenarioKind::kOverlap;
  plan.primitive = CommPrimitive::kAllReduce;
  plan.partition = WavePartition{{1, 2}};
  plan.group_tiles = {{marker + 1, marker + 2}};
  plan.segments = {CommSegment{0, 1024.0, 10.0}, CommSegment{1, 2048.0, 20.0}};
  plan.predicted_us = marker;
  return plan;
}

// The record lines a snapshot writes for `key`'s plan in `store`: the
// plan tier of a store holding only that plan, without the header
// comment and the count footer.
std::string RecordText(const PlanStore& store, uint64_t key) {
  PlanStore single;
  single.Put(key, store.Peek(key));
  const std::string text = single.Serialize();
  const size_t begin = text.find("\nplan ") + 1;
  return text.substr(begin, text.rfind("# count") - begin);
}

// Imports `text` as a per-store snapshot import would: parses it and
// puts each plan in key order.
void ParseAndPut(const std::string& text, PlanStore* store) {
  const std::optional<PlanStore> parsed = PlanStore::Parse(text);
  ASSERT_TRUE(parsed.has_value());
  for (const auto& [key, entry] : parsed->plans()) {
    store->Put(key, entry.plan);
  }
}

TEST(PlanStoreLruTest, CapacityEvictsLeastRecentlyUsed) {
  PlanStore store(/*capacity=*/2);
  store.Put(1, MarkedPlan(1));
  store.Put(2, MarkedPlan(2));
  ASSERT_NE(store.Find(1), nullptr);  // touch: key 2 is now the LRU entry
  store.Put(3, MarkedPlan(3));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.Contains(1));
  EXPECT_FALSE(store.Contains(2));
  EXPECT_TRUE(store.Contains(3));
  EXPECT_EQ(store.stats().evictions, 1u);
}

TEST(PlanStoreLruTest, StatsCountHitsAndMisses) {
  PlanStore store;
  store.Put(7, MarkedPlan(7));
  EXPECT_NE(store.Find(7), nullptr);
  EXPECT_EQ(store.Find(8), nullptr);
  EXPECT_TRUE(store.FindCopy(7).has_value());
  EXPECT_FALSE(store.FindCopy(9).has_value());
  const PlanStoreStats stats = store.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
  store.ResetStats();
  EXPECT_EQ(store.stats().hits, 0u);
  // Contains is a peek: no counting.
  EXPECT_TRUE(store.Contains(7));
  EXPECT_EQ(store.stats().hits + store.stats().misses, 0u);
}

TEST(PlanStoreLruTest, ShrinkingCapacityEvictsImmediately) {
  PlanStore store;
  for (int i = 0; i < 5; ++i) {
    store.Put(i, MarkedPlan(i));
  }
  store.set_capacity(2);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.stats().evictions, 3u);
  // The two most recently inserted survive.
  EXPECT_TRUE(store.Contains(3));
  EXPECT_TRUE(store.Contains(4));
}

TEST(PlanStoreParseTest, TrailingGarbageInRecordFieldsRejected) {
  PlanStore store;
  store.Put(0xff, MarkedPlan(1));
  const std::string good = store.Serialize();
  ASSERT_TRUE(PlanStore::Parse(good).has_value());
  // Corrupt one field at a time: hex key, predicted double, seg latency.
  std::string bad_key = good;
  bad_key.replace(bad_key.find("00000000000000ff"), 16, "00000000000000zz");
  EXPECT_FALSE(PlanStore::Parse(bad_key).has_value());
  std::string bad_double = good;
  bad_double.replace(bad_double.find(" 1 "), 3, " 1garbage ");
  EXPECT_FALSE(PlanStore::Parse(bad_double).has_value());
  std::string bad_seg = good;
  bad_seg.replace(bad_seg.find("seg 0"), 5, "seg 0x");
  EXPECT_FALSE(PlanStore::Parse(bad_seg).has_value());
}

TEST(PlanStoreLruTest, EvictedThenRepopulatedStoreRoundTrips) {
  PlanStore store(/*capacity=*/2);
  store.Put(1, MarkedPlan(1));
  store.Put(2, MarkedPlan(2));
  store.Put(3, MarkedPlan(3));  // evicts key 1
  ASSERT_FALSE(store.Contains(1));
  store.Put(1, MarkedPlan(1));  // repopulate: evicts key 2
  ASSERT_FALSE(store.Contains(2));

  const auto parsed = PlanStore::Parse(store.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), 2u);
  ASSERT_NE(parsed->Find(1), nullptr);
  ASSERT_NE(parsed->Find(3), nullptr);
  EXPECT_EQ(*parsed->Find(1), MarkedPlan(1));
  EXPECT_EQ(*parsed->Find(3), MarkedPlan(3));
  // The parsed store is unbounded until told otherwise; re-imposing the
  // cap keeps behaving LRU-wise on the repopulated content.
  EXPECT_EQ(parsed->capacity(), 0u);
}

TEST(PlanStoreLruTest, SharedStoreSurvivesConcurrentUse) {
  PlanStore store(/*capacity=*/8);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint64_t key = static_cast<uint64_t>((t * kOpsPerThread + i) % 16);
        if (i % 3 == 0) {
          store.Put(key, MarkedPlan(static_cast<int>(key)));
        } else if (i % 3 == 1) {
          // A Find handle: its plan outlives a concurrent eviction or
          // overwrite of the entry.
          const PlanStore::Handle plan = store.Find(key);
          if (plan != nullptr) {
            EXPECT_EQ(*plan, MarkedPlan(static_cast<int>(key)));
          }
        } else {
          const auto plan = store.FindCopy(key);
          if (plan.has_value()) {
            EXPECT_EQ(plan->segments.size(), 2u);
          }
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_LE(store.size(), 8u);
  // Lookups per thread: every i with i % 3 != 0.
  const size_t finds_per_thread = kOpsPerThread - (kOpsPerThread + 2) / 3;
  const PlanStoreStats stats = store.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * finds_per_thread);
}

// A Find handle keeps reading its plan after the entry leaves the store,
// by eviction, Erase, Clear or overwrite (ASan catches a dangling read).
TEST(PlanStoreLruTest, FindHandleOutlivesItsEntry) {
  PlanStore store(/*capacity=*/1);
  store.Put(1, MarkedPlan(1));
  const PlanStore::Handle evicted = store.Find(1);
  store.Put(2, MarkedPlan(2));
  ASSERT_FALSE(store.Contains(1));
  const PlanStore::Handle erased = store.Find(2);
  ASSERT_TRUE(store.Erase(2));
  store.Put(3, MarkedPlan(3));
  const PlanStore::Handle overwritten = store.Find(3);
  store.Put(3, MarkedPlan(4));
  const PlanStore::Handle cleared = store.Find(3);
  store.Clear();
  ASSERT_EQ(store.size(), 0u);
  EXPECT_EQ(*evicted, MarkedPlan(1));
  EXPECT_EQ(*erased, MarkedPlan(2));
  EXPECT_EQ(*overwritten, MarkedPlan(3));
  EXPECT_EQ(*cleared, MarkedPlan(4));
  // Putting a handle stores that object: two stores share it, uncopied.
  PlanStore a;
  PlanStore b;
  EXPECT_EQ(a.Put(5, cleared), cleared);
  b.Put(5, cleared);
  EXPECT_EQ(a.Find(5).get(), b.Find(5).get());
}

// Peek returns the stored handle without counting a lookup or refreshing
// recency: the LRU victim stays the one Find and Put left.
TEST(PlanStoreLruTest, PeekCountsNothingAndKeepsLruOrder) {
  PlanStore store(/*capacity=*/2);
  const PlanStore::Handle first = store.Put(1, MarkedPlan(1));
  store.Put(2, MarkedPlan(2));
  EXPECT_EQ(store.Peek(1), first);
  EXPECT_EQ(store.Peek(3), nullptr);
  EXPECT_EQ(store.stats().hits + store.stats().misses, 0u);
  store.Put(3, MarkedPlan(3));  // key 1 is still the LRU entry
  EXPECT_FALSE(store.Contains(1));
  EXPECT_TRUE(store.Contains(2));
}

TEST(PlanStoreRecordTest, ExportImportRoundTripsBitIdentically) {
  PlanStore source;
  source.Put(0xabc, MarkedPlan(3));
  source.Put(0xdef, MarkedPlan(4));
  const std::string record = RecordText(source, 0xabc);
  EXPECT_EQ(source.Peek(0x123), nullptr);

  const std::optional<PlanStore> target = PlanStore::Parse(record);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(target->size(), 1u);
  EXPECT_EQ(*target->FindCopy(0xabc), MarkedPlan(3));
  // The re-exported record is the same bytes: a plan saved twice (or
  // through a file) never drifts.
  EXPECT_EQ(RecordText(*target, 0xabc), record);
  // Malformed text parses to nothing.
  EXPECT_FALSE(PlanStore::Parse("plan zz\n").has_value());
  // A multi-record text (a fleet snapshot) holds every plan.
  const std::optional<PlanStore> bulk = PlanStore::Parse(source.Serialize());
  ASSERT_TRUE(bulk.has_value());
  EXPECT_EQ(bulk->size(), 2u);
}

TEST(PlanStoreRecordTest, FindAndFindCopyAgreeAcrossSnapshotRoundTrip) {
  PlanStore store;
  for (int i = 0; i < 4; ++i) {
    store.Put(100 + i, MarkedPlan(i));
  }
  const std::string snapshot = store.Serialize();
  const auto restored = PlanStore::Parse(snapshot);
  ASSERT_TRUE(restored.has_value());
  for (int i = 0; i < 4; ++i) {
    const uint64_t key = 100 + i;
    // Find and FindCopy agree with each other...
    const PlanStore::Handle by_ref = store.Find(key);
    ASSERT_NE(by_ref, nullptr);
    EXPECT_EQ(*by_ref, *store.FindCopy(key));
    // ...and with the save/load round-trip, bit for bit.
    const PlanStore::Handle restored_ref = restored->Find(key);
    ASSERT_NE(restored_ref, nullptr);
    EXPECT_EQ(*restored_ref, *by_ref);
    EXPECT_EQ(*restored->FindCopy(key), *by_ref);
  }
  // A second round-trip is byte-stable.
  EXPECT_EQ(restored->Serialize(), snapshot);
}

TEST(PlanStoreRecordTest, EraseDiscardsWithoutCountingEviction) {
  PlanStore store;
  store.Put(1, MarkedPlan(0));
  store.Put(2, MarkedPlan(1));
  EXPECT_TRUE(store.Erase(1));
  EXPECT_FALSE(store.Erase(1));  // already gone
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.Find(1), nullptr);
  EXPECT_NE(store.Find(2), nullptr);
  // An explicit discard is not capacity pressure.
  EXPECT_EQ(store.stats().evictions, 0u);
}

TEST(PlanStoreRecordTest, SnapshotTruncatedAtRecordBoundaryRejectedWhole) {
  PlanStore store;
  for (int i = 0; i < 3; ++i) {
    store.Put(100 + i, MarkedPlan(i));
  }
  const std::string snapshot = store.Serialize();
  // Drop the last full record but keep the count footer: every surviving
  // line parses cleanly, yet the declared count no longer matches — the
  // exact corruption a partial write or download leaves behind.
  const size_t last_record = snapshot.rfind("\nplan ");
  const size_t footer = snapshot.rfind("# count");
  ASSERT_NE(last_record, std::string::npos);
  ASSERT_NE(footer, std::string::npos);
  ASSERT_LT(last_record, footer);
  const std::string truncated =
      snapshot.substr(0, last_record + 1) + snapshot.substr(footer);
  EXPECT_FALSE(PlanStore::Parse(truncated).has_value());

  // The rejection is atomic: an import of the corrupt text applies
  // nothing to a live store.
  PlanShipper shipper;
  auto target = std::make_shared<PlanStore>();
  target->Put(999, MarkedPlan(9));
  shipper.Subscribe(0, target);
  EXPECT_EQ(shipper.ImportSnapshot(truncated), 0u);
  EXPECT_EQ(target->size(), 1u);
  EXPECT_NE(target->Find(999), nullptr);

  // Mid-record truncation (no footer survives) is caught by the open
  // record itself.
  const std::string mid = snapshot.substr(0, last_record + 10);
  EXPECT_FALSE(PlanStore::Parse(mid).has_value());
  // A record-boundary cut with the footer also gone is the one shape the
  // format cannot distinguish from a smaller snapshot — the footer exists
  // precisely to close that hole in files Serialize wrote.
  const auto parsed = PlanStore::Parse(snapshot);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), 3u);
}

// A NaN segment latency would abort the replay that executes the plan, so
// the record is rejected and an import leaves the live store as it was.
TEST(PlanStoreParseTest, NonFiniteSegmentLatencyRejectedWhole) {
  PlanStore source;
  source.Put(0xff, MarkedPlan(1));
  source.Put(0x100, MarkedPlan(2));
  std::string bad = source.Serialize();
  const size_t seg = bad.find("seg 0 1024 10\n");
  ASSERT_NE(seg, std::string::npos);
  bad.replace(seg, 13, "seg 0 1024 nan");
  EXPECT_FALSE(PlanStore::Parse(bad).has_value());

  PlanShipper shipper;
  auto target = std::make_shared<PlanStore>();
  target->Put(999, MarkedPlan(9));
  shipper.Subscribe(0, target);
  const std::string before = target->Serialize();
  EXPECT_EQ(shipper.ImportSnapshot(bad), 0u);
  EXPECT_EQ(target->Serialize(), before);
}

TEST(PlanStoreLruTest, ConcurrentPublishAndEvictionChurn) {
  // Multi-replica churn: publisher threads parse record text and put the
  // plans into a bounded store (a snapshot import) while reader threads
  // take copies — racing puts against LRU evictions.
  PlanStore store(/*capacity=*/4);
  std::vector<std::string> records;
  for (int i = 0; i < 16; ++i) {
    PlanStore scratch;
    scratch.Put(static_cast<uint64_t>(i), MarkedPlan(i));
    records.push_back(RecordText(scratch, static_cast<uint64_t>(i)));
  }
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 400;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int slot = (t * kOpsPerThread + i) % 16;
        if (t % 2 == 0) {
          ParseAndPut(records[slot], &store);
        } else {
          const auto plan = store.FindCopy(static_cast<uint64_t>(slot));
          if (plan.has_value()) {
            // A copy taken under the lock is never a torn shipment.
            EXPECT_EQ(*plan, MarkedPlan(slot));
          }
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_LE(store.size(), 4u);
  EXPECT_GT(store.stats().evictions, 0u);
  // Whatever survived the churn still round-trips bit-identically.
  const auto parsed = PlanStore::Parse(store.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Serialize(), store.Serialize());
}

// --- Two-tier snapshots (tuner-tier StoredPlans + plan-tier records) --------

std::vector<std::pair<uint64_t, StoredPlan>> KeyedSamplePlans() {
  const auto plans = SamplePlans();
  return {{0xabc, plans[0]}, {0xdef123456789abcdULL, plans[1]}};
}

TEST(TunerTierTest, SerializeParseRoundTripsKeyedPlans) {
  const auto keyed = KeyedSamplePlans();
  const std::string text = SerializeTunerTier(keyed);
  const auto parsed = ParseTunerTier(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), keyed.size());
  for (size_t i = 0; i < keyed.size(); ++i) {
    EXPECT_EQ((*parsed)[i].first, keyed[i].first);
    EXPECT_EQ((*parsed)[i].second, keyed[i].second);
  }
  // A second round-trip is byte-stable.
  EXPECT_EQ(SerializeTunerTier(*parsed), text);
}

TEST(TunerTierTest, CombinedSnapshotReadableByBothTierParsers) {
  PlanStore store;
  store.Put(0xabc, MarkedPlan(1));
  store.Put(0xdef, MarkedPlan(2));
  const std::string combined = store.Serialize() + SerializeTunerTier(KeyedSamplePlans());

  // The plan-tier parser reads the combined file unchanged: every tuner
  // line is '#'-prefixed, i.e. a comment to it.
  const auto plans = PlanStore::Parse(combined);
  ASSERT_TRUE(plans.has_value());
  EXPECT_EQ(plans->size(), 2u);
  EXPECT_EQ(*plans->FindCopy(0xabc), MarkedPlan(1));

  // The tuner-tier parser finds its section in the same bytes.
  const auto tier = ParseTunerTier(combined);
  ASSERT_TRUE(tier.has_value());
  EXPECT_EQ(tier->size(), 2u);

  // An old single-tier snapshot reads as an empty tuner tier, not an
  // error — forward compatibility for snapshots written before the tier.
  const auto empty = ParseTunerTier(store.Serialize());
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

TEST(TunerTierTest, MalformedTierOrCountMismatchRejectedWhole) {
  const std::string good = SerializeTunerTier(KeyedSamplePlans());
  // Corrupt the key hex.
  std::string bad_key = good;
  bad_key.replace(bad_key.find("0000000000000abc"), 16, "0000000000000azc");
  EXPECT_FALSE(ParseTunerTier(bad_key).has_value());
  // Unknown primitive.
  std::string bad_prim = good;
  bad_prim.replace(bad_prim.find("AllReduce"), 9, "Broadcast");
  EXPECT_FALSE(ParseTunerTier(bad_prim).has_value());
  // Drop the first record but keep the footer: the declared count no
  // longer matches — the shape a truncated download leaves behind.
  const size_t second = good.find("\n#tuner ");
  ASSERT_NE(second, std::string::npos);
  EXPECT_FALSE(ParseTunerTier(good.substr(second + 1)).has_value());
}

// The field checks of the tuner tier, one malformed line at a time.
TEST(TunerTierTest, MalformedFieldsRejected) {
  const std::string key = "#tuner 0000000000000001 ";
  ASSERT_TRUE(ParseTunerTier(key + "4096 8192 7168 AllReduce 1,2 10 20\n").has_value());
  EXPECT_FALSE(ParseTunerTier(key + "4096 8192 AllReduce 1,2 10 20\n").has_value());
  EXPECT_FALSE(ParseTunerTier(key + "4096 8192 7168 AllReduce 1,0 10 20\n").has_value());
  EXPECT_FALSE(ParseTunerTier(key + "4096 8192 7168 AllReduce abc 10 20\n").has_value());
  EXPECT_FALSE(ParseTunerTier(key + "-1 8192 7168 AllReduce 1 10 20\n").has_value());
}

// Appends `suffix` to the first line of `text`, past the first, that
// starts with `tag`.
std::string AppendToLine(std::string text, const std::string& tag, const std::string& suffix) {
  const size_t line = text.find('\n' + tag);
  EXPECT_NE(line, std::string::npos) << "no line starts with " << tag;
  text.insert(text.find('\n', line + 1), suffix);
  return text;
}

// Text no serializer writes is rejected, not imported as a plan that
// would re-export as different bytes: an extra token after any record
// line's fields, or a trailing comma in a CSV field. Each rejection
// leaves an importing store untouched.
TEST(PlanStoreParseTest, TextThatCannotReExportIdenticallyRejectedWhole) {
  PlanStore source;
  source.Put(0xff, MarkedPlan(1));
  const std::string good = source.Serialize();
  ASSERT_EQ(PlanStore::Parse(good)->Serialize(), good);
  const std::string partition = " 1,2 ";
  ASSERT_NE(good.find(partition), std::string::npos);
  std::string partition_comma = good;
  partition_comma.replace(good.find(partition), partition.size(), " 1,2, ");
  const std::string bad_texts[] = {
      AppendToLine(good, "plan ", " extra"), AppendToLine(good, "tiles ", " 7"),
      AppendToLine(good, "seg ", " 0"),      AppendToLine(good, "end", " end"),
      AppendToLine(good, "tiles ", ","),     partition_comma,
  };
  PlanShipper shipper;
  auto target = std::make_shared<PlanStore>();
  target->Put(999, MarkedPlan(9));
  shipper.Subscribe(0, target);
  const std::string before = target->Serialize();
  for (const std::string& bad : bad_texts) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(PlanStore::Parse(bad).has_value());
    EXPECT_EQ(shipper.ImportSnapshot(bad), 0u);
    EXPECT_EQ(target->Serialize(), before);
  }

  const std::string tier = SerializeTunerTier(KeyedSamplePlans());
  ASSERT_TRUE(ParseTunerTier(tier).has_value());
  std::string tier_comma = tier;
  tier_comma.replace(tier.find(" 1,2,4 "), 7, " 1,2,4, ");
  EXPECT_FALSE(ParseTunerTier(AppendToLine(tier, "#tuner ", " extra")).has_value());
  EXPECT_FALSE(ParseTunerTier(tier_comma).has_value());
}

// Replaces the first `from` in `text` with `to`.
std::string Respell(std::string text, const std::string& from, const std::string& to) {
  const size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << "no " << from;
  return at == std::string::npos ? text : text.replace(at, from.size(), to);
}

// A value spelled other than as the serializer writes it (a sign or a
// leading zero on an integer, an upper-case or short key, a double not in
// %.17g form), or a record line spaced other than with single spaces (a
// doubled, leading or trailing space, a tab, a CRLF line end), is
// rejected by both tier parsers, so whatever parses re-exports as the
// same bytes. A rejected import leaves the store, the tuner cache and the
// published set as they were.
TEST(PlanStoreParseTest, NonCanonicalSpellingsRejectedWhole) {
  PlanStore source;
  source.Put(0xff, MarkedPlan(1));
  const std::string plans = source.Serialize();
  ASSERT_NE(plans.find("plan 00000000000000ff Overlap AllReduce 1,2 1 0\n"), std::string::npos);
  ASSERT_EQ(PlanStore::Parse(plans)->Serialize(), plans);
  const std::string plan_probes[] = {
      Respell(plans, "tiles 2,3", "tiles +2,3"),
      Respell(plans, "tiles 2,3", "tiles 02,3"),
      Respell(plans, "00000000000000ff", "00000000000000FF"),
      Respell(plans, "00000000000000ff", "ff"),
      Respell(plans, "1,2 1 0", "1,2 1.0 0"),
      Respell(plans, "1,2 1 0", "1,2 1e0 0"),
      Respell(plans, "seg 0 1024 10", "seg 0 1024.0 10"),
      Respell(plans, "seg 0 1024 10", "seg +0 1024 10"),
      Respell(plans, "AllReduce 1,2 ", "AllReduce 01,2 "),
      Respell(plans, "# count 1", "# count 01"),
      Respell(plans, "plan 00000000000000ff", "plan  00000000000000ff"),
      Respell(plans, "tiles 2,3", "tiles\t2,3"),
      Respell(plans, "end\n", "end \n"),
      Respell(plans, "seg 0 1024 10\n", "seg 0 1024 10 \n"),
      Respell(plans, "end\n", "end\r\n"),
  };
  // Each probe is also imported into a live store below, with the tuner
  // tier appended.
  for (const std::string& bad : plan_probes) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(PlanStore::Parse(bad).has_value());
  }

  const std::vector<std::pair<uint64_t, StoredPlan>> keyed = {
      {0xff, StoredPlan{GemmShape{4096, 8192, 7168}, CommPrimitive::kAllReduce,
                        WavePartition{{2, 3}}, 1.0, 1024.0}}};
  const std::string tier = SerializeTunerTier(keyed);
  ASSERT_EQ(tier, "#tuner 00000000000000ff 4096 8192 7168 AllReduce 2,3 1 1024\n"
                  "#tuner-count 1\n");
  ASSERT_EQ(ParseTunerTier(tier), keyed);
  const std::string tier_probes[] = {
      Respell(tier, " 2,3 ", " +2,3 "),
      Respell(tier, " 2,3 ", " 02,3 "),
      Respell(tier, "00000000000000ff", "00000000000000FF"),
      Respell(tier, "00000000000000ff", "ff"),
      Respell(tier, " 2,3 1 ", " 2,3 1.0 "),
      Respell(tier, " 2,3 1 ", " 2,3 1e0 "),
      Respell(tier, " 1024\n", " 1024.0\n"),
      Respell(tier, " 4096 ", " 04096 "),
      Respell(tier, "#tuner-count 1", "#tuner-count +1"),
      Respell(tier, "ff 4096 ", "ff  4096 "),
      Respell(tier, " 2,3 ", "\t2,3 "),
      Respell(tier, " 1024\n", " 1024 \n"),
      Respell(tier, " 1024\n", " 1024\r\n"),
  };
  // The good snapshot imports both tiers, so each rejection below is the
  // probe's doing.
  {
    PlanShipper shipper;
    auto store = std::make_shared<PlanStore>();
    Tuner tuner(MakeA800Cluster(4));
    shipper.Subscribe(0, store, &tuner);
    ASSERT_EQ(shipper.ImportSnapshot(plans + tier), 1u);
    ASSERT_EQ(tuner.cache_size(), 1u);
  }
  PlanShipper shipper;
  auto store = std::make_shared<PlanStore>();
  store->Put(999, MarkedPlan(9));
  Tuner tuner(MakeA800Cluster(4));
  shipper.Subscribe(0, store, &tuner);
  const std::string before = store->Serialize();
  for (const std::string& bad : tier_probes) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(ParseTunerTier(bad).has_value());
    EXPECT_EQ(shipper.ImportSnapshot(plans + bad), 0u);
    EXPECT_EQ(store->Serialize(), before);
    EXPECT_EQ(tuner.cache_size(), 0u);
  }
  for (const std::string& bad : plan_probes) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(shipper.ImportSnapshot(bad), 0u);
    EXPECT_EQ(shipper.ImportSnapshot(bad + tier), 0u);
    EXPECT_EQ(store->Serialize(), before);
    EXPECT_EQ(tuner.cache_size(), 0u);
  }
  EXPECT_EQ(shipper.published_size(), 0u);
}

TEST(PlanShipperSnapshotTest, TwoTierSnapshotRoundTripsThroughImport) {
  // Publish two keys with tuner-tier artifacts, snapshot, and import the
  // snapshot into a second shipper with a subscribed store + tuner: the
  // store re-warms from the plan tier, the tuner from the artifact tier.
  PlanShipper source_shipper;
  PlanStore source;
  const auto keyed = KeyedSamplePlans();
  source.Put(keyed[0].first, MarkedPlan(1));
  source.Put(keyed[1].first, MarkedPlan(2));
  ASSERT_TRUE(source_shipper.Publish(keyed[0].first, source, &keyed[0].second));
  ASSERT_TRUE(source_shipper.Publish(keyed[1].first, source, &keyed[1].second));
  const std::string snapshot = source_shipper.SerializeSnapshot();

  PlanShipper target;
  auto store = std::make_shared<PlanStore>();
  Tuner tuner(MakeA800Cluster(4));
  target.Subscribe(0, store, &tuner);
  EXPECT_EQ(target.ImportSnapshot(snapshot), 2u);
  EXPECT_TRUE(store->Contains(keyed[0].first));
  EXPECT_TRUE(store->Contains(keyed[1].first));
  EXPECT_EQ(tuner.cache_size(), 2u);
  // The re-exported snapshot is the same bytes: shipping a fleet's
  // published set through a file never drifts.
  EXPECT_EQ(target.SerializeSnapshot(), snapshot);

  // Malformed tuner tier rejects the whole import atomically.
  std::string corrupt = snapshot;
  corrupt.replace(corrupt.find("#tuner-count"), 13, "#tuner-count 9");
  PlanShipper reject;
  EXPECT_EQ(reject.ImportSnapshot(corrupt), 0u);
  EXPECT_EQ(reject.published_size(), 0u);
}

TEST(PlanShipperSnapshotTest, NonFiniteTunerTierPredictionRejectedWhole) {
  PlanShipper source_shipper;
  PlanStore source;
  const auto keyed = KeyedSamplePlans();
  source.Put(keyed[0].first, MarkedPlan(1));
  ASSERT_TRUE(source_shipper.Publish(keyed[0].first, source, &keyed[0].second));
  std::string bad = source_shipper.SerializeSnapshot();
  const size_t predicted = bad.find(" 1234.5 ");
  ASSERT_NE(predicted, std::string::npos);
  bad.replace(predicted, 8, " inf ");
  EXPECT_FALSE(ParseTunerTier(bad).has_value());

  // Neither tier is applied: the subscribed store keeps its bytes and the
  // tuner its cache.
  PlanShipper target;
  auto store = std::make_shared<PlanStore>();
  store->Put(999, MarkedPlan(9));
  const std::string before = store->Serialize();
  Tuner tuner(MakeA800Cluster(4));
  target.Subscribe(0, store, &tuner);
  EXPECT_EQ(target.ImportSnapshot(bad), 0u);
  EXPECT_EQ(target.published_size(), 0u);
  EXPECT_EQ(store->Serialize(), before);
  EXPECT_EQ(tuner.cache_size(), 0u);
}

TEST(PlanShipperSnapshotTest, ImportMatchesPerStoreImportAndRejectsWhole) {
  // The shipper parses a snapshot once and puts its plans into every
  // subscriber. Each store must end in the state a per-store parse and
  // put of the same text leaves: same bytes, same LRU order.
  // Subscribers start with different contents and capacities, so the
  // import inserts, overwrites and evicts.
  PlanStore source;
  for (int i = 0; i < 4; ++i) {
    source.Put(200 + i, MarkedPlan(i));
  }
  const std::string snapshot = source.Serialize();
  const struct {
    size_t capacity;
    int first;  // pre-existing keys 200 + first ...
    int count;
  } starts[] = {{0, 0, 0}, {3, 2, 3}, {2, 5, 2}, {0, 1, 2}, {1, 0, 1}};
  const auto make = [](size_t capacity, int first, int count) {
    auto store = std::make_shared<PlanStore>(capacity);
    for (int i = first; i < first + count; ++i) {
      store->Put(static_cast<uint64_t>(200 + i), MarkedPlan(100 + i));
    }
    return store;
  };
  PlanShipper shipper;
  std::vector<std::shared_ptr<PlanStore>> shipped;
  std::vector<std::shared_ptr<PlanStore>> reference;
  for (size_t i = 0; i < std::size(starts); ++i) {
    shipped.push_back(make(starts[i].capacity, starts[i].first, starts[i].count));
    reference.push_back(make(starts[i].capacity, starts[i].first, starts[i].count));
    shipper.Subscribe(static_cast<int>(i), shipped.back());
  }
  ASSERT_EQ(shipper.ImportSnapshot(snapshot), 4u);
  EXPECT_EQ(shipper.stats().shipped, 4u * std::size(starts));
  for (auto& store : reference) {
    ParseAndPut(snapshot, store.get());
  }

  // A snapshot truncated at a record boundary (footer kept) applies
  // nothing anywhere: not to the published set, not to any subscriber.
  PlanStore bigger;
  for (int i = 0; i < 3; ++i) {
    bigger.Put(300 + i, MarkedPlan(i));
  }
  const std::string full = bigger.Serialize();
  const std::string truncated =
      full.substr(0, full.rfind("\nplan ") + 1) + full.substr(full.rfind("# count"));
  std::vector<std::string> before;
  for (const auto& store : shipped) {
    before.push_back(store->Serialize());
  }
  EXPECT_EQ(shipper.ImportSnapshot(truncated), 0u);
  EXPECT_EQ(shipper.published_size(), 4u);
  EXPECT_EQ(shipper.stats().shipped, 4u * std::size(starts));
  for (size_t i = 0; i < shipped.size(); ++i) {
    EXPECT_EQ(shipped[i]->Serialize(), before[i]) << "subscriber " << i;
  }

  // Same bytes, then the same LRU order: shrinking to one plan evicts the
  // rest least recently used first.
  const auto eviction_order = [](PlanStore* store) {
    std::vector<uint64_t> evicted;
    store->SetChangeCallback([&evicted](uint64_t key, bool resident) {
      if (!resident) {
        evicted.push_back(key);
      }
    });
    store->set_capacity(1);
    store->SetChangeCallback(nullptr);
    return evicted;
  };
  for (size_t i = 0; i < shipped.size(); ++i) {
    SCOPED_TRACE("subscriber " + std::to_string(i));
    EXPECT_EQ(shipped[i]->Serialize(), reference[i]->Serialize());
    EXPECT_EQ(eviction_order(shipped[i].get()), eviction_order(reference[i].get()));
  }
}

// The shipper from several threads at once: publishers tune and publish
// distinct keys into shared bounded subscriber stores (publish fan-out
// reads the published set under the shipper's lock), re-shippers pull
// published keys back into those stores, a second owner re-publishes
// published keys from its own store, a reader takes copies, and a late
// replica subscribes mid-run (bootstrap). Run under TSan in CI.
TEST(PlanShipperConcurrencyTest, PublishReshipAndLateSubscribeRaceCleanly) {
  constexpr int kPublishers = 2;
  constexpr int kKeysPerPublisher = 48;
  constexpr int kKeys = kPublishers * kKeysPerPublisher;
  constexpr size_t kCapacity = 4;
  PlanShipper shipper;
  std::vector<std::shared_ptr<PlanStore>> stores;
  for (int id = 0; id < 3; ++id) {
    stores.push_back(std::make_shared<PlanStore>(kCapacity));
    shipper.Subscribe(id, stores.back());
  }
  auto late = std::make_shared<PlanStore>(kCapacity);
  Tuner late_tuner(MakeA800Cluster(4));
  const auto artifact = [](int key) {
    return StoredPlan{GemmShape{1024 * (key + 1), 4096, 4096}, CommPrimitive::kAllReduce,
                      WavePartition{{1}}, 0.0, 0.0};
  };

  std::atomic<int> published{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kPublishers; ++t) {
    threads.emplace_back([&, t] {
      // The owner tunes into a private store, as a replica whose plan is
      // not (yet) in any shared store.
      PlanStore owner;
      for (int i = 0; i < kKeysPerPublisher; ++i) {
        const int key = t * kKeysPerPublisher + i;
        EXPECT_TRUE(shipper.BeginTuning(key, 100 + t));
        owner.Put(key, MarkedPlan(key));
        const StoredPlan tuned = artifact(key);
        EXPECT_TRUE(shipper.Publish(key, owner, &tuned));
        published.fetch_add(1);
      }
    });
  }
  for (int id = 0; id < 2; ++id) {
    threads.emplace_back([&, id] {
      for (int round = 0; round < 4 * kKeys; ++round) {
        const int key = round % kKeys;
        // Only published keys: an unpublished one would be acquired, and
        // its publisher's BeginTuning would then lose the race.
        if (shipper.Published(key)) {
          EXPECT_TRUE(shipper.BeginTuning(key, id));
        }
      }
    });
  }
  threads.emplace_back([&] {
    // Equal plans in new objects, as a replica whose store evicted a plan
    // re-tunes it at zero searches: a re-publish must not replace the
    // published object.
    PlanStore second_owner;
    for (int round = 0; round < 2 * kKeys; ++round) {
      const int key = round % kKeys;
      if (shipper.Published(key)) {
        second_owner.Put(key, MarkedPlan(key));
        EXPECT_TRUE(shipper.Publish(key, second_owner));
      }
    }
  });
  threads.emplace_back([&] {
    for (int round = 0; round < 4 * kKeys; ++round) {
      const int key = round % kKeys;
      if (const auto plan = stores[2]->FindCopy(key)) {
        EXPECT_EQ(*plan, MarkedPlan(key));
      }
    }
  });
  threads.emplace_back([&] {
    while (published.load() < kKeys / 4) {
      std::this_thread::yield();
    }
    EXPECT_GT(shipper.Subscribe(3, late, &late_tuner), 0u);
  });
  for (auto& thread : threads) {
    thread.join();
  }

  const PlanShipperStats stats = shipper.stats();
  EXPECT_EQ(stats.published, static_cast<size_t>(kKeys));
  EXPECT_EQ(stats.duplicate_tunes_avoided, 0u);
  EXPECT_GE(stats.shipped, 3u * kKeys);
  EXPECT_EQ(shipper.published_size(), static_cast<size_t>(kKeys));
  // Every artifact reached the late tuner: by bootstrap or by fan-out.
  EXPECT_EQ(late_tuner.cache_size(), static_cast<size_t>(kKeys));
  stores.push_back(late);
  for (const auto& store : stores) {
    EXPECT_EQ(store->size(), kCapacity);
    const auto parsed = PlanStore::Parse(store->Serialize());
    ASSERT_TRUE(parsed.has_value());
    for (const auto& [key, entry] : parsed->plans()) {
      EXPECT_EQ(*entry.plan, MarkedPlan(static_cast<int>(key)));
    }
  }
  const auto snapshot = PlanStore::Parse(shipper.SerializeSnapshot());
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->size(), static_cast<size_t>(kKeys));
  // One plan object per key: every store that holds a key holds the
  // published object, which an unbounded late subscriber bootstraps.
  auto audit = std::make_shared<PlanStore>();
  EXPECT_EQ(shipper.Subscribe(4, audit), static_cast<size_t>(kKeys));
  for (int key = 0; key < kKeys; ++key) {
    const PlanStore::Handle published = audit->Peek(key);
    ASSERT_NE(published, nullptr) << "key " << key;
    for (const auto& store : stores) {
      const PlanStore::Handle held = store->Peek(key);
      if (held != nullptr) {
        EXPECT_EQ(held, published) << "key " << key;
      }
    }
  }
}

TEST(TunerPersistenceTest, ExportImportRestoresCache) {
  Tuner source(MakeA800Cluster(4));
  source.Tune(GemmShape{4096, 8192, 4096}, CommPrimitive::kAllReduce);
  source.Tune(GemmShape{8192, 8192, 2048}, CommPrimitive::kReduceScatter);
  const auto exported = source.ExportPlans();
  EXPECT_EQ(exported.size(), 2u);

  Tuner target(MakeA800Cluster(4));
  EXPECT_EQ(target.ImportPlans(exported), 2);
  EXPECT_EQ(target.cache_size(), 2u);
  // The imported plan answers without searching (candidates_evaluated
  // stays at the import value of 1 inside the cache) and matches the
  // original partition.
  const TunedPlan& restored = target.Tune(GemmShape{4096, 8192, 4096},
                                          CommPrimitive::kAllReduce);
  const TunedPlan& original = source.Tune(GemmShape{4096, 8192, 4096},
                                          CommPrimitive::kAllReduce);
  EXPECT_EQ(restored.partition.group_sizes, original.partition.group_sizes);
  EXPECT_EQ(restored.candidates_evaluated, 1);
}

TEST(TunerPersistenceTest, ImportRescalesAcrossHardware) {
  // Plans tuned on one SM budget transfer to another by rescaling.
  Tuner source(MakeA800Cluster(4));
  source.Tune(GemmShape{4096, 8192, 4096}, CommPrimitive::kAllReduce);
  Tuner target(Make4090Cluster(4));
  EXPECT_EQ(target.ImportPlans(source.ExportPlans()), 1);
  const TunedPlan& plan = target.Tune(GemmShape{4096, 8192, 4096},
                                      CommPrimitive::kAllReduce);
  EXPECT_TRUE(plan.partition.Valid(plan.effective_waves));
}

TEST(TunerPersistenceTest, SerializedCacheSurvivesTheTextFormat) {
  Tuner source(Make4090Cluster(4));
  source.Tune(GemmShape{2048, 8192, 8192}, CommPrimitive::kAllReduce);
  const std::vector<StoredPlan> exported = source.ExportPlans();
  std::vector<std::pair<uint64_t, StoredPlan>> keyed;
  for (size_t i = 0; i < exported.size(); ++i) {
    keyed.emplace_back(i, exported[i]);
  }
  const auto parsed = ParseTunerTier(SerializeTunerTier(keyed));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, keyed);
  std::vector<StoredPlan> plans;
  for (const auto& [key, plan] : *parsed) {
    plans.push_back(plan);
  }
  Tuner target(Make4090Cluster(4));
  EXPECT_EQ(target.ImportPlans(plans), 1);
  EXPECT_EQ(target.ExportPlans(), exported);
}


// A key is exactly 16 lower-case hex digits in both tiers: a sign, a
// "0x" prefix, a leading space or a 17th digit is rejected whole, with
// nothing imported.
TEST(PlanStoreParseTest, KeyNotSixteenBareHexDigitsRejectedWhole) {
  PlanStore source;
  source.Put(0xff, MarkedPlan(1));
  const std::string plans = source.Serialize();
  const std::string tier = SerializeTunerTier(
      {{0xff, StoredPlan{GemmShape{4096, 8192, 7168}, CommPrimitive::kAllReduce,
                         WavePartition{{2, 3}}, 1.0, 1024.0}}});
  ASSERT_TRUE(PlanStore::Parse(plans).has_value());
  ASSERT_TRUE(ParseTunerTier(tier).has_value());
  const std::string key = "00000000000000ff";
  const std::string bad_keys[] = {
      "-1", "-00000000000000ff", "0x10", "0x000000000000ff", " 00000000000000ff",
      "11111111111111111", "000000000000000ff",
  };
  PlanShipper shipper;
  auto store = std::make_shared<PlanStore>();
  store->Put(999, MarkedPlan(9));
  Tuner tuner(MakeA800Cluster(4));
  shipper.Subscribe(0, store, &tuner);
  const std::string before = store->Serialize();
  for (const std::string& bad : bad_keys) {
    SCOPED_TRACE(bad);
    const std::string bad_plans = Respell(plans, key, bad);
    EXPECT_FALSE(PlanStore::Parse(bad_plans).has_value());
    EXPECT_EQ(shipper.ImportSnapshot(bad_plans), 0u);
    EXPECT_EQ(store->Serialize(), before);
    const std::string bad_tier = Respell(tier, key, bad);
    EXPECT_FALSE(ParseTunerTier(bad_tier).has_value());
    EXPECT_EQ(shipper.ImportSnapshot(plans + bad_tier), 0u);
    EXPECT_EQ(store->Serialize(), before);
    EXPECT_EQ(tuner.cache_size(), 0u);
  }
  EXPECT_EQ(shipper.published_size(), 0u);
}

// Every serializer writes a tier's keys in ascending order, so a record
// whose key is not greater than the one before it in its tier (a repeat,
// or keys out of order) is rejected whole. Accepting it would re-export
// different bytes: one record where two were read, or the keys reordered.
TEST(PlanStoreParseTest, RepeatedOrOutOfOrderKeysRejectedWhole) {
  PlanStore source;
  source.Put(0xff, MarkedPlan(1));
  source.Put(0x100, MarkedPlan(2));
  const std::string first = RecordText(source, 0xff);
  const std::string second = RecordText(source, 0x100);
  ASSERT_EQ(PlanStore::Parse(first + second + "# count 2\n")->Serialize(), source.Serialize());
  const std::string plan_probes[] = {
      first + first + "# count 2\n",
      first + first,
      second + first + "# count 2\n",
      first + second + first,
  };
  PlanShipper shipper;
  auto store = std::make_shared<PlanStore>();
  store->Put(999, MarkedPlan(9));
  Tuner tuner(MakeA800Cluster(4));
  shipper.Subscribe(0, store, &tuner);
  const std::string before = store->Serialize();
  for (const std::string& bad : plan_probes) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(PlanStore::Parse(bad).has_value());
    EXPECT_EQ(shipper.ImportSnapshot(bad), 0u);
    EXPECT_EQ(store->Serialize(), before);
  }

  const auto keyed = KeyedSamplePlans();
  ASSERT_LT(keyed[0].first, keyed[1].first);
  ASSERT_TRUE(ParseTunerTier(SerializeTunerTier(keyed)).has_value());
  const std::string tier_probes[] = {
      SerializeTunerTier({keyed[0], keyed[0]}),
      SerializeTunerTier({keyed[1], keyed[0]}),
      SerializeTunerTier({keyed[0], keyed[1], keyed[1]}),
  };
  for (const std::string& bad : tier_probes) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(ParseTunerTier(bad).has_value());
    EXPECT_EQ(shipper.ImportSnapshot(source.Serialize() + bad), 0u);
    EXPECT_EQ(store->Serialize(), before);
    EXPECT_EQ(tuner.cache_size(), 0u);
  }
  EXPECT_EQ(shipper.published_size(), 0u);
}

// Two more spellings that parsed but re-exported different bytes: a
// record's lines out of the order the serializer writes them (a tiles
// line after a seg line), and a primitive named by an alias or in another
// case than CommPrimitiveName's.
TEST(PlanStoreParseTest, ReorderedRecordLinesOrAliasedNamesRejectedWhole) {
  PlanStore source;
  source.Put(0xff, MarkedPlan(1));
  const std::string plans = source.Serialize();
  ASSERT_NE(plans.find("tiles 2,3\nseg 0 1024 10\n"), std::string::npos);
  const std::string plan_probes[] = {
      Respell(plans, "tiles 2,3\nseg 0 1024 10\n", "seg 0 1024 10\ntiles 2,3\n"),
      Respell(plans, " AllReduce ", " allreduce "),
      Respell(plans, " AllReduce ", " AR "),
  };
  PlanShipper shipper;
  auto target = std::make_shared<PlanStore>();
  target->Put(999, MarkedPlan(9));
  shipper.Subscribe(0, target);
  const std::string before = target->Serialize();
  for (const std::string& bad : plan_probes) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(PlanStore::Parse(bad).has_value());
    EXPECT_EQ(shipper.ImportSnapshot(bad), 0u);
    EXPECT_EQ(target->Serialize(), before);
  }
  const std::string tier = SerializeTunerTier(KeyedSamplePlans());
  EXPECT_FALSE(ParseTunerTier(Respell(tier, " AllReduce ", " ALLREDUCE ")).has_value());
  EXPECT_FALSE(ParseTunerTier(Respell(tier, " AllToAll ", " a2a ")).has_value());
}

// --- Seeded mutation fuzzing of a real two-tier snapshot ---------------------

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    const size_t end = std::min(text.find('\n', start), text.size());
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

// The record lines of `text` for one tier, each with its newline: the
// lines a parse of that tier reads, comments and count footers left out.
std::string RecordLines(const std::string& text, bool tuner_tier) {
  std::string lines;
  for (const std::string& line : SplitLines(text)) {
    if (tuner_tier ? line.rfind("#tuner ", 0) == 0 : !line.empty() && line[0] != '#') {
      lines += line + '\n';
    }
  }
  return lines;
}

// One seeded edit: a byte overwritten, a byte deleted, a token or a line
// duplicated, or two lines swapped.
std::string Mutate(std::string text, Rng& rng) {
  const auto pick = [&rng](size_t n) { return static_cast<size_t>(rng.NextU64() % n); };
  static constexpr char kBytes[] = "0123456789abcdefAEx-+., \n#\t\r";
  switch (pick(5)) {
    case 0: {
      const size_t at = pick(text.size());
      text[at] = pick(2) == 0 ? kBytes[pick(sizeof(kBytes) - 1)]
                              : static_cast<char>(text[at] ^ (1 << pick(8)));
      return text;
    }
    case 1:
      return text.erase(pick(text.size()), 1);
    default:
      break;
  }
  std::vector<std::string> lines = SplitLines(text);
  const size_t a = pick(lines.size());
  const size_t b = pick(lines.size());
  switch (pick(3)) {
    case 0: {  // duplicate one space-separated token of line a
      std::string& line = lines[a];
      std::vector<size_t> starts{0};
      for (size_t i = 0; i < line.size(); ++i) {
        if (line[i] == ' ') {
          starts.push_back(i + 1);
        }
      }
      const size_t begin = starts[pick(starts.size())];
      const size_t end = std::min(line.find(' ', begin), line.size());
      line.insert(end, ' ' + line.substr(begin, end - begin));
      break;
    }
    case 1:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(b), lines[a]);
      break;
    default:
      std::swap(lines[a], lines[b]);
      break;
  }
  std::string out;
  for (const std::string& line : lines) {
    out += line + '\n';
  }
  return out;
}

// A mutated snapshot either is rejected, and then no import applies
// anything, or every record line it parsed re-exports byte-identically:
// PlanStore::Serialize for the plans, SerializeTunerTier for the tuner
// lines.
TEST(PlanStoreFuzzTest, SeededMutationsRejectWholeOrReExportIdentically) {
  const ClusterSpec hardware = MakeA800Cluster(4);
  const std::vector<ScenarioSpec> specs{
      ScenarioSpec::Overlap(GemmShape{2048, 4096, 1024}, CommPrimitive::kAllReduce),
      ScenarioSpec::Overlap(GemmShape{4096, 4096, 2048}, CommPrimitive::kReduceScatter),
      ScenarioSpec::NonOverlap(GemmShape{2048, 4096, 1024}, CommPrimitive::kAllReduce),
      ScenarioSpec::Imbalanced({GemmShape{4096, 4096, 1024}, GemmShape{2048, 4096, 1024},
                                GemmShape{2048, 4096, 1024}, GemmShape{1024, 4096, 1024}},
                               CommPrimitive::kAllToAll),
  };
  ClusterConfig config;
  config.replicas = 2;
  ServingCluster fleet(hardware, config, {}, EngineOptions{.jitter = false});
  fleet.Run(MakeRequestStream("fuzz", specs, {0.0, 100.0, 200.0, 300.0}));
  const std::string snapshot = fleet.shipper().SerializeSnapshot();
  ASSERT_EQ(PlanStore::Parse(snapshot)->size(), specs.size());
  ASSERT_FALSE(ParseTunerTier(snapshot)->empty());

  PlanShipper shipper;
  auto store = std::make_shared<PlanStore>();
  store->Put(999, MarkedPlan(9));
  Tuner tuner(hardware);
  shipper.Subscribe(0, store, &tuner);
  const std::string store_before = store->Serialize();

  // Rejected imports log an error each; count them instead of printing.
  // The guard removes the sink on every exit, a failed ASSERT's early
  // return included, so no later test logs through `logged`.
  size_t logged = 0;
  SetLogSink([](LogLevel, const char*, int, const std::string&,
                void* ctx) { ++*static_cast<size_t*>(ctx); },
             &logged);
  struct SinkReset {
    ~SinkReset() { SetLogSink(nullptr, nullptr); }
  } sink_reset;
  Rng rng(26);
  size_t plan_accepted = 0;
  size_t tier_accepted = 0;
  constexpr int kTexts = 1500;
  for (int i = 0; i < kTexts; ++i) {
    std::string text = Mutate(snapshot, rng);
    if (rng.NextU64() % 2 == 0) {
      text = Mutate(text, rng);
    }
    SCOPED_TRACE(text);
    const std::optional<PlanStore> plans = PlanStore::Parse(text);
    const auto tier = ParseTunerTier(text);
    if (plans.has_value()) {
      ++plan_accepted;
      ASSERT_EQ(RecordLines(plans->Serialize(), false), RecordLines(text, false));
    }
    if (tier.has_value()) {
      ++tier_accepted;
      const std::string exported = SerializeTunerTier(*tier);
      ASSERT_EQ(exported.substr(0, exported.rfind("#tuner-count ")), RecordLines(text, true));
    }
    if (!plans.has_value() || !tier.has_value()) {
      ASSERT_EQ(shipper.ImportSnapshot(text), 0u);
      ASSERT_EQ(store->Serialize(), store_before);
      ASSERT_EQ(tuner.cache_size(), 0u);
      ASSERT_EQ(shipper.published_size(), 0u);
    }
  }
  EXPECT_GT(logged, 0u);
  // Both outcomes are common, so neither branch above is vacuous.
  EXPECT_GT(plan_accepted, kTexts / 10);
  EXPECT_LT(plan_accepted, kTexts * 9 / 10);
  EXPECT_GT(tier_accepted, kTexts / 10);
  EXPECT_LT(tier_accepted, kTexts * 9 / 10);
}

}  // namespace
}  // namespace flo
