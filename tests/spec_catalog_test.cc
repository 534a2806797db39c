// SpecCatalog: specs key exactly as OverlapPlanner::CanonicalKey, each
// run counts its distinct keys, the catalog stays bounded across runs, and
// a fleet keys its arrivals through it.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/cluster/serving_cluster.h"
#include "src/cluster/spec_catalog.h"
#include "src/core/overlap_planner.h"
#include "src/core/plan_store.h"
#include "src/core/tuner.h"
#include "src/serve/request_source.h"

namespace flo {
namespace {

ScenarioSpec SmallSpec(int64_t m) {
  return ScenarioSpec::Overlap(GemmShape{m, 2048, 1024}, CommPrimitive::kAllReduce);
}

// The base spec and variants that each differ from it in one field.
std::vector<ScenarioSpec> Variants() {
  const ScenarioSpec base = SmallSpec(2048);
  std::vector<ScenarioSpec> specs = {base};
  ScenarioSpec with_options = base;
  with_options.options = EngineOptions{.jitter = false};
  specs.push_back(with_options);
  ScenarioSpec with_other_options = base;
  with_other_options.options = EngineOptions{.seed_salt = 7};
  specs.push_back(with_other_options);
  const WavePartition partition{{1, 2}};
  specs.push_back(ScenarioSpec::Overlap(base.shapes[0], base.primitive, &partition));
  specs.push_back(ScenarioSpec::Misconfigured(base.shapes[0], base.primitive, 2));
  specs.push_back(ScenarioSpec::NonOverlap(base.shapes[0], base.primitive));
  specs.push_back(ScenarioSpec::Overlap(base.shapes[0], CommPrimitive::kReduceScatter));
  const GemmShape other{1024, 2048, 1024};
  specs.push_back(ScenarioSpec::Imbalanced(
      {base.shapes[0], other, base.shapes[0], base.shapes[0]}, CommPrimitive::kAllToAll));
  specs.push_back(ScenarioSpec::Imbalanced(
      {other, base.shapes[0], base.shapes[0], base.shapes[0]}, CommPrimitive::kAllToAll));
  specs.push_back(ScenarioSpec::NonOverlapImbalanced(
      {base.shapes[0], other, base.shapes[0], base.shapes[0]}, CommPrimitive::kAllToAll));
  return specs;
}

TEST(SpecCatalogTest, KeysEqualCanonicalKeysForEveryVariant) {
  Tuner tuner(Make4090Cluster(4));
  PlanStore store;
  OverlapPlanner planner(&tuner, &store);
  SpecCatalog catalog(&planner);
  const std::vector<ScenarioSpec> specs = Variants();
  for (int pass = 0; pass < 2; ++pass) {
    // Fresh copies each pass: identity is by value, not by address.
    const std::vector<ScenarioSpec> copies = specs;
    for (const ScenarioSpec& spec : copies) {
      SCOPED_TRACE(spec.Describe());
      EXPECT_EQ(catalog.Key(spec), planner.CanonicalKey(spec));
    }
  }
  // Options are not plan-relevant: those two variants share the base's
  // key. Every other variant keys apart.
  EXPECT_EQ(catalog.Key(specs[1]), catalog.Key(specs[0]));
  EXPECT_EQ(catalog.Key(specs[2]), catalog.Key(specs[0]));
  EXPECT_EQ(catalog.run_keys(), specs.size() - 2);
}

TEST(SpecCatalogTest, RunKeysCountEachRunsDistinctKeys) {
  Tuner tuner(Make4090Cluster(4));
  PlanStore store;
  OverlapPlanner planner(&tuner, &store);
  SpecCatalog catalog(&planner);
  const std::vector<ScenarioSpec> specs = Variants();
  for (int run = 0; run < 3; ++run) {
    catalog.BeginRun();
    EXPECT_EQ(catalog.run_keys(), 0u);
    // Run r keys the variants from index r on, each twice.
    std::set<uint64_t> keys;
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = static_cast<size_t>(run); i < specs.size(); ++i) {
        keys.insert(planner.CanonicalKey(specs[i]));
        EXPECT_EQ(catalog.Key(specs[i]), planner.CanonicalKey(specs[i]));
      }
    }
    EXPECT_EQ(catalog.run_keys(), keys.size()) << "run " << run;
  }
}

TEST(SpecCatalogTest, BeginRunDropsEntriesPastTheBound) {
  Tuner tuner(Make4090Cluster(4));
  PlanStore store;
  OverlapPlanner planner(&tuner, &store);
  SpecCatalog catalog(&planner);
  // One run past the bound; the next run starts from an empty catalog and
  // must key and count exactly as before.
  for (int run = 0; run < 3; ++run) {
    catalog.BeginRun();
    const size_t specs = run == 0 ? SpecCatalog::kMaxSpecs + 1 : 40;
    for (size_t m = 1; m <= specs; ++m) {
      const ScenarioSpec spec = SmallSpec(static_cast<int64_t>(m));
      ASSERT_EQ(catalog.Key(spec), planner.CanonicalKey(spec)) << "run " << run << " m " << m;
    }
    EXPECT_EQ(catalog.run_keys(), specs) << "run " << run;
  }
}

TEST(SpecCatalogTest, FleetKeysAreStableAcrossRuns) {
  std::vector<ScenarioSpec> specs;
  for (int k = 0; k < 5; ++k) {
    specs.push_back(SmallSpec(1024 + 512 * k));
  }
  const std::vector<ServeRequest> trace =
      MakeRequestStream("llm", specs, PoissonArrivals(800.0, 40, 3), 0);
  ClusterConfig config;
  config.replicas = 3;
  ServingCluster fleet(Make4090Cluster(4), config, {}, EngineOptions{.jitter = false});
  Tuner tuner(Make4090Cluster(4));
  PlanStore store;
  OverlapPlanner planner(&tuner, &store);
  for (int run = 0; run < 2; ++run) {
    EXPECT_EQ(fleet.Run(trace).distinct_keys, specs.size()) << "run " << run;
    for (const ScenarioSpec& spec : specs) {
      EXPECT_EQ(fleet.KeyFor(spec), planner.CanonicalKey(spec));
    }
  }
}

}  // namespace
}  // namespace flo
