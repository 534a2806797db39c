// Umbrella header: the FlashOverlap public API.
//
// Typical use — describe a scenario, let the engine plan and execute it:
//   flo::ClusterSpec cluster = flo::Make4090Cluster(4);
//   flo::OverlapEngine engine(cluster);
//   flo::GemmShape shape{4096, 8192, 7168};
//   flo::OverlapRun run = engine.Execute(
//       flo::ScenarioSpec::Overlap(shape, flo::CommPrimitive::kAllReduce));
//   flo::OverlapRun base = engine.Execute(
//       flo::ScenarioSpec::NonOverlap(shape, flo::CommPrimitive::kAllReduce));
//   double speedup = base.total_us / run.total_us;
//
// Many scenarios sweep through one engine (plans are cached, a warm sweep
// never searches):
//   for (const flo::ScenarioSpec& spec : specs) runs.push_back(engine.Execute(spec));
//
// For numerically verified execution on real buffers, use
// flo::FunctionalOverlap.
//
// For online serving (trace-driven request streams over a shared executor
// with a concurrent, evicting PlanStore), see flo::ServeLoop:
//   auto store = std::make_shared<flo::PlanStore>(/*capacity=*/64);
//   engine.UseSharedPlanStore(store);
//   flo::ServeLoop loop(&engine);
//   flo::ServeReport report = loop.Run(trace);
//
// For a multi-replica serving fleet (plan-affinity routing, plan
// shipping, autoscaling), see flo::ServingCluster:
//   flo::ClusterConfig config{.replicas = 4};
//   flo::ServingCluster fleet(cluster, config);
//   flo::FleetReport fleet_report = fleet.Run(trace);
#ifndef SRC_CORE_FLASHOVERLAP_H_
#define SRC_CORE_FLASHOVERLAP_H_

#include "src/cluster/autoscaler.h"
#include "src/cluster/fleet_router.h"
#include "src/cluster/plan_shipping.h"
#include "src/cluster/replica.h"
#include "src/cluster/replica_table.h"
#include "src/cluster/serving_cluster.h"
#include "src/comm/cost_model.h"
#include "src/comm/functional.h"
#include "src/comm/primitive.h"
#include "src/core/counting_table.h"
#include "src/core/engine_options.h"
#include "src/core/execution_plan.h"
#include "src/core/functional_overlap.h"
#include "src/core/mapping_table.h"
#include "src/core/overlap_engine.h"
#include "src/core/overlap_planner.h"
#include "src/core/plan_store.h"
#include "src/core/predictor.h"
#include "src/core/reorder.h"
#include "src/core/rmsnorm.h"
#include "src/core/scenario.h"
#include "src/core/schedule_executor.h"
#include "src/core/tuner.h"
#include "src/core/wave_partition.h"
#include "src/gemm/gemm_model.h"
#include "src/gemm/host_gemm.h"
#include "src/gemm/swizzle.h"
#include "src/gemm/tile.h"
#include "src/gemm/wave.h"
#include "src/hw/cluster.h"
#include "src/serve/request_queue.h"
#include "src/serve/request_source.h"
#include "src/serve/serve_loop.h"
#include "src/serve/serve_session.h"
#include "src/serve/serve_stats.h"

#endif  // SRC_CORE_FLASHOVERLAP_H_
