// Ablation: closed-form vs mechanistic communication simulation.
//
// The tuner interpolates the analytic cost model; the engine can charge
// either that model or a per-step ring transport. If the two disagreed,
// the predictor would be validated against the wrong machine. This bench
// quantifies the agreement across primitives, cluster sizes and payloads,
// and shows the end-to-end overlap result is invariant to the choice.
#include <cmath>
#include <cstdio>

#include "src/comm/ring_transport.h"
#include "src/core/overlap_engine.h"
#include "src/util/table.h"

namespace flo {
namespace {

void CollectiveAgreement() {
  std::printf("collective latency: analytic vs stepwise ring (4x A800)\n");
  const InterconnectSpec link = MakeNvlinkA800();
  CommCostModel model(link, 4);
  Table table({"primitive", "payload", "analytic_us", "stepwise_us", "delta"});
  for (CommPrimitive primitive :
       {CommPrimitive::kAllReduce, CommPrimitive::kReduceScatter, CommPrimitive::kAllGather,
        CommPrimitive::kAllToAll}) {
    for (double mib : {4.0, 64.0, 512.0}) {
      const double bytes = mib * 1024 * 1024;
      // The ring transport's schedule, summed step by step in replay order:
      // host-side call overhead, then equal chunk rotations.
      const int steps = RingStepCount(primitive, 4);
      const double chunk = WireFactor(primitive, 4) * bytes / steps;
      double stepwise = link.call_overhead_us;
      for (int step = 0; step < steps; ++step) {
        stepwise += RingStepTime(link, bytes, chunk);
      }
      const double analytic = model.LatencyUs(primitive, bytes);
      table.AddRow({CommPrimitiveName(primitive), FormatBytes(bytes),
                    FormatDouble(analytic, 1), FormatDouble(stepwise, 1),
                    FormatDouble(100.0 * std::abs(stepwise - analytic) / analytic, 2) + "%"});
    }
  }
  std::printf("%s\n", table.Render().c_str());
}

void EndToEndInvariance() {
  std::printf("end-to-end overlap: closed-form vs mechanistic transport\n");
  Table table({"cluster", "shape", "closed_us", "mechanistic_us", "delta"});
  for (auto make_cluster : {Make4090Cluster, MakeA800Cluster}) {
    EngineOptions closed;
    closed.jitter = false;
    EngineOptions detailed = closed;
    detailed.detailed_comm = true;
    OverlapEngine closed_engine(make_cluster(4), {}, closed);
    OverlapEngine detailed_engine(make_cluster(4), {}, detailed);
    for (const GemmShape& shape : {GemmShape{4096, 8192, 8192}, GemmShape{8192, 8192, 2048}}) {
      const double a = closed_engine.Execute(ScenarioSpec::Overlap(shape, CommPrimitive::kAllReduce)).total_us;
      const double b = detailed_engine.Execute(ScenarioSpec::Overlap(shape, CommPrimitive::kAllReduce)).total_us;
      table.AddRow({closed_engine.cluster().Describe(), shape.ToString(), FormatDouble(a, 1),
                    FormatDouble(b, 1),
                    FormatDouble(100.0 * std::abs(a - b) / a, 2) + "%"});
    }
  }
  std::printf("%s", table.Render().c_str());
}

}  // namespace
}  // namespace flo

int main() {
  std::printf("Ablation — communication model fidelity\n\n");
  flo::CollectiveAgreement();
  flo::EndToEndInvariance();
  return 0;
}
