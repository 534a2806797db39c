// Allocation regression guard for the warm request path.
//
// A warm request (its plan cached, its run memoized) should cost a
// placement, a queue slot and a memo hit, with no heap traffic of its own.
// This binary replaces the global operator new with a counting one and
// bounds the allocations ServingCluster::Run makes per request on the
// second run of a warm 8-replica fleet. The first run tunes every key,
// fills the run memo and grows the per-replica buffers; the second run
// starts fresh sessions over the same engines and stores, so what it
// allocates per request is the per-request path's own churn.
//
// Sanitizer runtimes bring their own allocator, so under ASan or TSan the
// counter is not installed and the test skips.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "src/cluster/serving_cluster.h"
#include "src/hw/cluster.h"
#include "src/serve/request_source.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FLO_COUNT_ALLOCATIONS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FLO_COUNT_ALLOCATIONS 0
#endif
#endif
#ifndef FLO_COUNT_ALLOCATIONS
#define FLO_COUNT_ALLOCATIONS 1
#endif

namespace {
std::atomic<size_t> g_allocations{0};
}  // namespace

#if FLO_COUNT_ALLOCATIONS
// The default array, nothrow and sized forms all route through these two.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace flo {
namespace {

ScenarioSpec Spec(int64_t m, int64_t n, int64_t k, CommPrimitive primitive) {
  return ScenarioSpec::Overlap(GemmShape{m, n, k}, primitive);
}

// Four tenants over eight keys, Poisson arrivals at about 70% of the
// fleet's capacity (about 0.9 ms of service per request on 8 replicas).
std::vector<ServeRequest> WarmTrace(int per_tenant) {
  const std::vector<std::pair<std::string, std::vector<ScenarioSpec>>> tenants = {
      {"llm", {Spec(4096, 8192, 1024, CommPrimitive::kAllReduce),
               Spec(8192, 8192, 1024, CommPrimitive::kAllReduce)}},
      {"chat", {Spec(1024, 8192, 3584, CommPrimitive::kReduceScatter),
                Spec(2048, 8192, 3584, CommPrimitive::kReduceScatter)}},
      {"train", {Spec(4096, 4096, 2048, CommPrimitive::kAllReduce),
                 Spec(2048, 4096, 2048, CommPrimitive::kAllReduce)}},
      {"batch", {Spec(2048, 8192, 1024, CommPrimitive::kAllReduce),
                 Spec(6144, 8192, 1024, CommPrimitive::kAllReduce)}},
  };
  std::vector<std::vector<ServeRequest>> streams;
  for (size_t t = 0; t < tenants.size(); ++t) {
    streams.push_back(MakeRequestStream(tenants[t].first, tenants[t].second,
                                        PoissonArrivals(640.0, per_tenant, 7 + t),
                                        static_cast<int64_t>(t) * 1000000));
  }
  return MergeStreams(std::move(streams));
}

TEST(AllocGuardTest, WarmFleetRunAllocatesAtMostOncePerRequest) {
#if !FLO_COUNT_ALLOCATIONS
  GTEST_SKIP() << "sanitizer allocators replace the counting operator new";
#else
  constexpr int kPerTenant = 2000;
  ClusterConfig config;
  config.replicas = 8;
  config.policy = PlacementPolicy::kPlanAffinity;
  ServingCluster fleet(MakeA800Cluster(8), config, {}, EngineOptions{.jitter = false});
  const FleetReport warmup = fleet.Run(WarmTrace(kPerTenant));
  ASSERT_EQ(warmup.stats.count(), 4u * kPerTenant);

  std::vector<ServeRequest> trace = WarmTrace(kPerTenant);
  const size_t requests = trace.size();
  const size_t before = g_allocations.load(std::memory_order_relaxed);
  const FleetReport warm = fleet.Run(std::move(trace));
  const size_t allocations = g_allocations.load(std::memory_order_relaxed) - before;

  ASSERT_EQ(warm.stats.count(), requests);
  EXPECT_EQ(warm.total_searches, 0u) << "the second run must be warm";
  EXPECT_DOUBLE_EQ(warm.WarmHitRate(), 1.0);
  const double per_request = static_cast<double>(allocations) / static_cast<double>(requests);
  // The report's record vectors grow geometrically, and each fresh session
  // allocates its lanes and batch pool once: a small constant per replica
  // plus a logarithmic term, far below one allocation per request.
  EXPECT_LE(per_request, 1.0) << allocations << " allocations for " << requests
                              << " warm requests";
  std::printf("warm run: %zu allocations for %zu requests (%.3f per request)\n", allocations,
              requests, per_request);
#endif
}

}  // namespace
}  // namespace flo
