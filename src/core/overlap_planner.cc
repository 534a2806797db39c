#include "src/core/overlap_planner.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "src/core/predictor.h"
#include "src/util/check.h"

namespace flo {
namespace {

// Cached plans bake in segment latencies and tuned partitions, so every
// numeric parameter that feeds the cost/GEMM models must be part of the
// key — names alone would serve stale plans after a spec tweak.
StableHash& MixDouble(StableHash& hash, double value) {
  return hash.Mix(std::bit_cast<uint64_t>(value));
}

// See CanonicalKey: bumped when imbalanced plan construction changes.
constexpr int kImbalancedPlanVersion = 2;

// Output element size in bytes (fp16/bf16), as the tuner's predictor
// assumes: a segment's payload is its tiles' elements times this.
constexpr int kElementSize = 2;

}  // namespace

OverlapPlanner::OverlapPlanner(Tuner* tuner, PlanStore* store)
    : tuner_(tuner), store_(store) {
  FLO_CHECK(tuner_ != nullptr);
  FLO_CHECK(store_ != nullptr);
}

uint64_t OverlapPlanner::CanonicalKey(const ScenarioSpec& spec) const {
  StableHash hash;
  spec.MixInto(hash);
  const ClusterSpec& cluster = tuner_->cluster();
  hash.Mix(cluster.gpu_count);
  hash.Mix(cluster.gpu.name.c_str());
  hash.Mix(cluster.gpu.sm_count);
  MixDouble(hash, cluster.gpu.fp16_tflops);
  MixDouble(hash, cluster.gpu.hbm_gbps);
  MixDouble(hash, cluster.gpu.kernel_launch_overhead_us);
  MixDouble(hash, cluster.gpu.gemm_peak_efficiency);
  MixDouble(hash, cluster.gpu.gemm_k_half);
  hash.Mix(static_cast<int>(cluster.link.kind));
  hash.Mix(cluster.link.name.c_str());
  hash.Mix(cluster.link.comm_sm_count);
  MixDouble(hash, cluster.link.peak_busbw_gbps);
  MixDouble(hash, cluster.link.base_latency_us);
  MixDouble(hash, cluster.link.half_saturation_bytes);
  MixDouble(hash, cluster.link.cliff_bytes);
  MixDouble(hash, cluster.link.call_overhead_us);
  const TunerConfig& config = tuner_->config();
  // 65536: the retired candidate cap, still mixed so stored keys stay valid.
  hash.Mix(config.s1).Mix(config.sp).Mix(65536);
  hash.Mix(config.exhaustive ? 1 : 0);
  hash.Mix(kElementSize);
  // 0: the retired search-implementation flag, mixed for the same reason.
  hash.Mix(0);
  // 1 << 24: the tuner's node budget (tuner.cc), mixed for the same reason.
  hash.Mix(1 << 24);
  if (spec.imbalanced()) {
    // Imbalanced planning-algorithm version: bumped when imbalanced plan
    // construction changes (v2: joint multi-rank search), so stale
    // on-disk stores and shipped records from older deployments never
    // serve plans the current planner would not build. Scoped to
    // imbalanced specs — balanced plans are byte-identical across the
    // change, so their warm starts stay valid.
    hash.Mix(kImbalancedPlanVersion);
  }
  return hash.value();
}

std::optional<PretuneRequest> OverlapPlanner::TuningRequest(const ScenarioSpec& spec) const {
  if (spec.shapes.empty() || spec.kind == ScenarioKind::kNonOverlap ||
      spec.forced_partition.has_value()) {
    return std::nullopt;
  }
  if (!spec.imbalanced()) {
    // Balanced (and misconfigured-ablation) builds tune the broadcast
    // shape.
    return PretuneRequest{{spec.shapes[0]}, spec.primitive};
  }
  // Joint search, keyed by the canonical rank-shape multiset — the same
  // ordering TuneImbalanced keys on (one shared home), so pre-warming one
  // spec never mis-warms another that shares only its heaviest rank.
  return PretuneRequest{Tuner::CanonicalShapeMultiset(spec.shapes), spec.primitive};
}

void OverlapPlanner::RecordLookup(bool hit, bool* cache_hit) {
  (hit ? stats_.cache_hits : stats_.cache_misses) += 1;
  if (cache_hit != nullptr) {
    *cache_hit = hit;
  }
}

PlanStore::Handle OverlapPlanner::Plan(const ScenarioSpec& spec, uint64_t key, bool* cache_hit) {
  PlanStore::Handle cached = store_->Find(key);
  RecordLookup(cached != nullptr, cache_hit);
  return cached != nullptr ? cached : store_->Put(key, Build(spec));
}

bool OverlapPlanner::TouchPlan(const ScenarioSpec& spec, uint64_t key) {
  const bool hit = store_->Touch(key);
  RecordLookup(hit, nullptr);
  if (!hit) {
    store_->Put(key, Build(spec));
  }
  return hit;
}

ExecutionPlan OverlapPlanner::Build(const ScenarioSpec& spec) {
  FLO_CHECK(!spec.shapes.empty()) << "scenario has no shapes";
  if (spec.extra_tiles > 0) {
    // The misconfiguration ablation is only defined for the balanced,
    // tuned-partition path; reject combinations we would silently ignore.
    FLO_CHECK(!spec.imbalanced()) << "extra_tiles is not supported with per-rank shapes";
    FLO_CHECK(!spec.forced_partition.has_value())
        << "extra_tiles always misconfigures the tuned partition; drop the forced one";
    FLO_CHECK(spec.kind == ScenarioKind::kOverlap)
        << "extra_tiles only affects overlapped execution";
  }
  if (spec.kind == ScenarioKind::kNonOverlap) {
    return BuildNonOverlap(spec);
  }
  return spec.imbalanced() ? BuildImbalancedOverlap(spec) : BuildBalancedOverlap(spec);
}

ExecutionPlan OverlapPlanner::BuildNonOverlap(const ScenarioSpec& spec) {
  const int n = tuner_->cluster().gpu_count;
  const std::vector<GemmShape> shapes = spec.RankShapes(n);
  ExecutionPlan plan;
  plan.kind = ScenarioKind::kNonOverlap;
  plan.primitive = spec.primitive;
  plan.partition = WavePartition::SingleGroup(1);
  CommSegment segment;
  double worst_gemm_us = 0.0;
  for (const GemmShape& shape : shapes) {
    const GemmConfig& config = tuner_->GemmConfigFor(shape);
    plan.group_tiles.push_back({config.tile_count});
    worst_gemm_us = std::max(worst_gemm_us, config.duration_us);
    // The library call moves the exact output payload, not the padded tile
    // footprint; the collective starts when the slowest rank arrives.
    const double bytes = shape.OutputBytes(kElementSize);
    segment.max_bytes = std::max(segment.max_bytes, bytes);
    segment.latency_us =
        std::max(segment.latency_us, tuner_->cost_model().LatencyUs(spec.primitive, bytes));
  }
  plan.segments.push_back(segment);
  // GEMM + collective, like PredictNonOverlapLatency — not comm alone.
  plan.predicted_non_overlap_us = worst_gemm_us + segment.latency_us;
  return plan;
}

ExecutionPlan OverlapPlanner::BuildBalancedOverlap(const ScenarioSpec& spec) {
  const GemmShape& shape = spec.shapes[0];
  const int n = tuner_->cluster().gpu_count;
  ExecutionPlan plan;
  plan.kind = ScenarioKind::kOverlap;
  plan.primitive = spec.primitive;
  PredictorSetup setup = tuner_->MakeSetup(shape, spec.primitive);

  if (spec.extra_tiles > 0) {
    // Misconfigured-wave ablation (Fig. 14): shift tiles forward so group g
    // waits for `extra_tiles` tiles that really belong to group g+1. The
    // final group keeps the remainder so the totals still cover the GEMM.
    const TunedPlan& tuned = tuner_->Tune(shape, spec.primitive);
    std::vector<int> tiles = setup.GroupTiles(tuned.partition);
    for (size_t g = 0; g + 1 < tiles.size(); ++g) {
      const int moved = std::min(spec.extra_tiles, tiles[g + 1] - 1);
      tiles[g] += moved;
      tiles[g + 1] -= moved;
    }
    plan.partition = tuned.partition;
    plan.group_tiles.assign(n, tiles);
    plan.predicted_non_overlap_us = tuned.predicted_non_overlap_us;
    FillCommSegments(&plan, std::vector<GemmShape>(n, shape));
    return plan;
  }

  WavePartition partition;
  double predicted = 0.0;
  if (spec.forced_partition.has_value()) {
    partition = *spec.forced_partition;
    if (partition.TotalWaves() == setup.EffectiveWaveCount()) {
      predicted = PredictOverlapLatency(setup, partition).latency_us;
    }
  } else {
    const TunedPlan& tuned = tuner_->Tune(shape, spec.primitive);
    partition = tuned.partition;
    predicted = tuned.predicted_us;
    plan.predicted_non_overlap_us = tuned.predicted_non_overlap_us;
  }
  WavePartition effective = partition;
  if (effective.TotalWaves() != setup.EffectiveWaveCount()) {
    effective = partition.group_count() > setup.EffectiveWaveCount()
                    ? WavePartition::PerWave(setup.EffectiveWaveCount())
                    : ScalePartitionExact(partition, setup.EffectiveWaveCount());
  }
  plan.partition = effective;
  plan.group_tiles.assign(n, setup.GroupTiles(effective));
  plan.predicted_us = predicted;
  FillCommSegments(&plan, std::vector<GemmShape>(n, shape));
  return plan;
}

ExecutionPlan OverlapPlanner::BuildImbalancedOverlap(const ScenarioSpec& spec) {
  const int n = tuner_->cluster().gpu_count;
  const std::vector<GemmShape> shapes = spec.RankShapes(n);
  if (spec.forced_partition.has_value()) {
    return BuildImbalancedForced(spec, shapes);
  }
  // Joint multi-rank search (fused branch-and-bound over per-rank latency
  // tables): the cached base composition already encodes the rendezvous
  // gating — when no segmentation wins, the single-group base degenerates
  // to sequential execution.
  const TunedMultiRankPlan& tuned = tuner_->TuneImbalanced(shapes, spec.primitive);
  ExecutionPlan plan;
  plan.kind = ScenarioKind::kOverlap;
  plan.primitive = spec.primitive;
  plan.partition = tuned.base;
  plan.predicted_us = tuned.predicted_us;
  plan.predicted_non_overlap_us = tuned.predicted_non_overlap_us;
  // Per-rank counting targets follow the exact projected groupings the
  // search scored, not a proportional tile split.
  plan.group_tiles.reserve(shapes.size());
  for (const GemmShape& shape : shapes) {
    PredictorSetup setup = tuner_->MakeSetup(shape, spec.primitive);
    const std::optional<WavePartition> projected =
        ProjectPartition(tuned.base, tuned.base_waves, setup.EffectiveWaveCount());
    FLO_CHECK(projected.has_value()) << "winning base must project onto every rank";
    plan.group_tiles.push_back(setup.GroupTiles(*projected));
  }
  FillCommSegments(&plan, shapes);
  return plan;
}

ExecutionPlan OverlapPlanner::BuildImbalancedForced(const ScenarioSpec& spec,
                                                    const std::vector<GemmShape>& shapes) {
  ExecutionPlan plan;
  plan.kind = ScenarioKind::kOverlap;
  plan.primitive = spec.primitive;
  // The heaviest rank is the reference: the forced base (e.g. the serving
  // safety plan's SingleGroup(1)) is restated over its waves, as for
  // balanced specs, and every rank scales its tiles from it.
  const GemmShape& reference =
      *std::max_element(shapes.begin(), shapes.end(),
                        [](const GemmShape& a, const GemmShape& b) { return a.m < b.m; });
  PredictorSetup reference_setup = tuner_->MakeSetup(reference, spec.primitive);
  const int reference_waves = reference_setup.EffectiveWaveCount();
  WavePartition base = *spec.forced_partition;
  if (base.TotalWaves() != reference_waves) {
    base = base.group_count() > reference_waves ? WavePartition::PerWave(reference_waves)
                                                : ScalePartitionExact(base, reference_waves);
  }
  // Every rank must be able to host one counting-table group per collective
  // call: cap the group count at the lightest rank's wave count by
  // coarsening, then restate the base over the reference's waves.
  int min_waves = reference_waves;
  for (const auto& shape : shapes) {
    PredictorSetup setup = tuner_->MakeSetup(shape, spec.primitive);
    min_waves = std::min(min_waves, setup.EffectiveWaveCount());
  }
  if (base.group_count() > min_waves) {
    base = ScalePartitionExact(ScalePartition(base, min_waves), reference_waves);
  }
  // Per-rank group tile counts proportional to the reference rank's
  // grouping: every rank keeps the same group count (the collectives are
  // rendezvous calls) but scales its tile boundaries to its own load.
  const std::vector<int> reference_tiles = reference_setup.GroupTiles(base);
  std::vector<double> fractions;
  fractions.reserve(reference_tiles.size());
  for (int tiles : reference_tiles) {
    fractions.push_back(static_cast<double>(tiles) / reference_setup.gemm.tile_count);
  }
  plan.group_tiles.reserve(shapes.size());
  for (const auto& shape : shapes) {
    const GemmConfig& config = tuner_->GemmConfigFor(shape);
    FLO_CHECK_GE(config.tile_count, static_cast<int>(fractions.size()))
        << "rank too small for the group count";
    plan.group_tiles.push_back(SplitTilesByFractions(config.tile_count, fractions));
  }
  plan.partition = base;
  FillCommSegments(&plan, shapes);
  return plan;
}

void OverlapPlanner::FillCommSegments(ExecutionPlan* plan,
                                      const std::vector<GemmShape>& rank_shapes) {
  // Payload follows the heaviest rank (the call is synchronizing); a
  // group's bytes are its counting target times the rank's tile footprint.
  FLO_CHECK_EQ(rank_shapes.size(), static_cast<size_t>(plan->rank_count()));
  plan->segments.clear();
  plan->segments.reserve(plan->group_count());
  for (int g = 0; g < plan->group_count(); ++g) {
    CommSegment segment;
    segment.group = g;
    for (int r = 0; r < plan->rank_count(); ++r) {
      const GemmConfig& config = tuner_->GemmConfigFor(rank_shapes[r]);
      const double rank_bytes = static_cast<double>(plan->group_tiles[r][g]) *
                                config.tile.Elements() * kElementSize;
      segment.max_bytes = std::max(segment.max_bytes, rank_bytes);
      if (rank_bytes > 0) {
        segment.latency_us = std::max(
            segment.latency_us, tuner_->cost_model().LatencyUs(plan->primitive, rank_bytes));
      }
    }
    plan->segments.push_back(segment);
  }
}

}  // namespace flo
