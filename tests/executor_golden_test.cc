// Golden replay test: pins ScheduleExecutor::ExecuteOverlap bit-exactly.
//
// Every expected value below is a hex-float literal, so a refactor of the
// replay engine either reproduces each event time to the last bit or
// fails. The grid covers every execution path of the executor: balanced
// and imbalanced plans, misconfigured waves, jitter on and off, the
// stepwise ring transport, signal polling, reserved SMs, transient
// collective SMs, a single-group plan and forced imbalanced partitions
// (coarsened to the lightest rank's waves, or fitting). Without jitter,
// balanced ranks tie: a wave starts at the very instant the last rank's
// arrival takes a transient collective's SMs, so the replay's event order
// shows in the result. On a mismatch the test prints the case's actual
// values in the same literal form.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/overlap_engine.h"

namespace flo {
namespace {

struct GoldenSpan {
  std::string name;
  double start = 0.0;
  double end = 0.0;
};

struct GoldenGroup {
  double signal_time = 0.0;
  double comm_start = 0.0;
  double comm_end = 0.0;
};

struct Golden {
  double total_us = 0.0;
  double gemm_end_us = 0.0;
  std::vector<GoldenGroup> groups;
  std::vector<GoldenSpan> gemm_spans;
  std::vector<GoldenSpan> comm_spans;
};

struct GoldenCase {
  std::string name;
  std::function<ClusterSpec()> cluster;
  ScenarioSpec spec;
  Golden expected;
};

Golden Capture(const OverlapRun& run) {
  Golden golden{run.total_us, run.gemm_end_us, {}, {}, {}};
  for (const GroupTrace& group : run.groups) {
    golden.groups.push_back({group.signal_time, group.comm_start, group.comm_end});
  }
  for (const TaskSpan& span : run.gemm_timeline.spans()) {
    golden.gemm_spans.push_back({span.name, span.start, span.end});
  }
  for (const TaskSpan& span : run.comm_timeline.spans()) {
    golden.comm_spans.push_back({span.name, span.start, span.end});
  }
  return golden;
}

std::string Hex(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

std::string SpansLiteral(const std::vector<GoldenSpan>& spans) {
  std::string out = "{";
  for (size_t i = 0; i < spans.size(); ++i) {
    out += (i == 0 ? "{\"" : ",\n         {\"") + spans[i].name + "\", " + Hex(spans[i].start) +
           ", " + Hex(spans[i].end) + "}";
  }
  return out + "}";
}

// The case's expected block, in the literal form used below.
std::string Literal(const Golden& golden) {
  std::string out = "{" + Hex(golden.total_us) + ", " + Hex(golden.gemm_end_us) + ",\n        {";
  for (size_t g = 0; g < golden.groups.size(); ++g) {
    const GoldenGroup& group = golden.groups[g];
    out += (g == 0 ? "{" : ",\n         {") + Hex(group.signal_time) + ", " +
           Hex(group.comm_start) + ", " + Hex(group.comm_end) + "}";
  }
  return out + "},\n        " + SpansLiteral(golden.gemm_spans) + ",\n        " +
         SpansLiteral(golden.comm_spans) + "}";
}

bool SameSpans(const std::vector<GoldenSpan>& a, const std::vector<GoldenSpan>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].start != b[i].start || a[i].end != b[i].end) {
      return false;
    }
  }
  return true;
}

bool Same(const Golden& a, const Golden& b) {
  if (a.total_us != b.total_us || a.gemm_end_us != b.gemm_end_us ||
      a.groups.size() != b.groups.size()) {
    return false;
  }
  for (size_t g = 0; g < a.groups.size(); ++g) {
    if (a.groups[g].signal_time != b.groups[g].signal_time ||
        a.groups[g].comm_start != b.groups[g].comm_start ||
        a.groups[g].comm_end != b.groups[g].comm_end) {
      return false;
    }
  }
  return SameSpans(a.gemm_spans, b.gemm_spans) && SameSpans(a.comm_spans, b.comm_spans);
}

ScenarioSpec WithOptions(ScenarioSpec spec, EngineOptions options) {
  spec.options = options;
  return spec;
}

const GemmShape kLlamaShape{4096, 8192, 8192};
const GemmShape kShallowShape{8192, 8192, 2048};
// On 4x A800 without jitter, one wave running narrower under a transient
// collective changes this shape's wave count.
const GemmShape kTieShape{5120, 8192, 8192};
// Mixtral-like expert loads: skewed M per rank, comm-heavy shallow K.
const std::vector<GemmShape> kMixtralShapes{
    GemmShape{8192, 8192, 1024}, GemmShape{10240, 8192, 1024}, GemmShape{12288, 8192, 1024},
    GemmShape{16384, 8192, 1024}};

std::vector<GoldenCase> Cases() {
  const EngineOptions no_jitter{.jitter = false};
  const WavePartition single = WavePartition::SingleGroup(8);
  // Forced imbalanced partitions skip every search. 24 groups exceed the
  // lightest Mixtral rank's 20 waves, so the planner coarsens them; 4
  // groups over 8 waves fit and are only restated over the heaviest rank's
  // 40 waves before each rank's tiles are split by the group fractions.
  const WavePartition coarsened = WavePartition::EqualSized(48, 2);
  const WavePartition fitting{{1, 2, 3, 2}};
  return {
      {"allreduce_jitter", [] { return MakeA800Cluster(4); },
       ScenarioSpec::Overlap(kLlamaShape, CommPrimitive::kAllReduce),
       {0x1.439c8bbf46384p+11, 0x1.2e95c7b292676p+11,
        {{0x1.f0f9a43381f08p+7, 0x1.f0f9a43381f08p+7, 0x1.a7db1775f7851p+8},
         {0x1.ea5262c6ad105p+8, 0x1.ea5262c6ad105p+8, 0x1.4a4455d11e4cap+9},
         {0x1.6f01d2d4c9701p+9, 0x1.6f01d2d4c9701p+9, 0x1.c67748e2e359ep+9},
         {0x1.e7b787335f70ap+9, 0x1.e7b787335f70ap+9, 0x1.1edde8eaeeeddp+10},
         {0x1.30273f578d253p+10, 0x1.30273f578d253p+10, 0x1.5b41c45ff50e2p+10},
         {0x1.6bff26a48cfdp+10, 0x1.6bff26a48cfdp+10, 0x1.9626b56465362p+10},
         {0x1.a893f72cef4d2p+10, 0x1.a893f72cef4d2p+10, 0x1.d43ffabfbb6ddp+10},
         {0x1.e4cd7a5b8999dp+10, 0x1.e4cd7a5b8999dp+10, 0x1.0813642b6ba08p+11},
         {0x1.10ac2a6a186dep+11, 0x1.10ac2a6a186dep+11, 0x1.25b410ee72984p+11},
         {0x1.2e95c7b292676p+11, 0x1.2e95c7b292676p+11, 0x1.439c8bbf46384p+11}},
        {{"gemm", 0x0p+0, 0x1.2de04ec9b6fcfp+11}},
        {{"signal_g0", 0x0p+0, 0x1.eb7936d33895bp+7},
         {"comm_g0", 0x1.eb7936d33895bp+7, 0x1.a7db1775f7851p+8},
         {"signal_g1", 0x1.a7db1775f7851p+8, 0x1.e5dc3f2254088p+8},
         {"comm_g1", 0x1.e5dc3f2254088p+8, 0x1.4a4455d11e4cap+9},
         {"signal_g2", 0x1.4a4455d11e4cap+9, 0x1.6b88dff3c29cbp+9},
         {"comm_g2", 0x1.6b88dff3c29cbp+9, 0x1.c67748e2e359ep+9},
         {"signal_g3", 0x1.c67748e2e359ep+9, 0x1.e53025dc641c9p+9},
         {"comm_g3", 0x1.e53025dc641c9p+9, 0x1.1edde8eaeeeddp+10},
         {"signal_g4", 0x1.1edde8eaeeeddp+10, 0x1.2eb9f1fd516f7p+10},
         {"comm_g4", 0x1.2eb9f1fd516f7p+10, 0x1.5b41c45ff50e2p+10},
         {"signal_g5", 0x1.5b41c45ff50e2p+10, 0x1.6a9626d23dd3cp+10},
         {"comm_g5", 0x1.6a9626d23dd3cp+10, 0x1.9626b56465362p+10},
         {"signal_g6", 0x1.9626b56465362p+10, 0x1.a6d0a0c167cfep+10},
         {"comm_g6", 0x1.a6d0a0c167cfep+10, 0x1.d43ffabfbb6ddp+10},
         {"signal_g7", 0x1.d43ffabfbb6ddp+10, 0x1.e2ba75b84c352p+10},
         {"comm_g7", 0x1.e2ba75b84c352p+10, 0x1.0813642b6ba08p+11},
         {"signal_g8", 0x1.0813642b6ba08p+11, 0x1.0f777f13eb984p+11},
         {"comm_g8", 0x1.0f777f13eb984p+11, 0x1.25b410ee72984p+11},
         {"signal_g9", 0x1.25b410ee72984p+11, 0x1.2de04ec9b6fcfp+11},
         {"comm_g9", 0x1.2de04ec9b6fcfp+11, 0x1.439c8bbf46384p+11}}}},
      {"allreduce_no_jitter", [] { return MakeA800Cluster(4); },
       WithOptions(ScenarioSpec::Overlap(kLlamaShape, CommPrimitive::kAllReduce), no_jitter),
       {0x1.3ff1ddfa0436p+11, 0x1.2b68fefb54dbfp+11,
        {{0x1.e80e64c554933p+7, 0x1.e80e64c554933p+7, 0x1.9b68e029e1b68p+8},
         {0x1.e30e64c554933p+8, 0x1.e30e64c554933p+8, 0x1.4538094646p+9},
         {0x1.690acb93ff6e6p+9, 0x1.690acb93ff6e6p+9, 0x1.bcbba2779b24dp+9},
         {0x1.e08e64c554933p+9, 0x1.e08e64c554933p+9, 0x1.1a1f9dd47824dp+10},
         {0x1.2c08fefb54dcp+10, 0x1.2c08fefb54dcp+10, 0x1.55e16a6d22b74p+10},
         {0x1.67cacb93ff6e6p+10, 0x1.67cacb93ff6e6p+10, 0x1.91a33705cd49ap+10},
         {0x1.a38c982caa00cp+10, 0x1.a38c982caa00cp+10, 0x1.cd65039e77dcp+10},
         {0x1.df4e64c554932p+10, 0x1.df4e64c554932p+10, 0x1.0493681b91373p+11},
         {0x1.0d8818aeff92cp+11, 0x1.0d8818aeff92cp+11, 0x1.22744e67e6806p+11},
         {0x1.2b68fefb54dbfp+11, 0x1.2b68fefb54dbfp+11, 0x1.3ff1ddfa0436p+11}},
        {{"gemm", 0x0p+0, 0x1.2b68fefb54dbfp+11}},
        {{"signal_g0", 0x0p+0, 0x1.e80e64c554933p+7},
         {"comm_g0", 0x1.e80e64c554933p+7, 0x1.9b68e029e1b68p+8},
         {"signal_g1", 0x1.9b68e029e1b68p+8, 0x1.e30e64c554933p+8},
         {"comm_g1", 0x1.e30e64c554933p+8, 0x1.4538094646p+9},
         {"signal_g2", 0x1.4538094646p+9, 0x1.690acb93ff6e6p+9},
         {"comm_g2", 0x1.690acb93ff6e6p+9, 0x1.bcbba2779b24dp+9},
         {"signal_g3", 0x1.bcbba2779b24dp+9, 0x1.e08e64c554933p+9},
         {"comm_g3", 0x1.e08e64c554933p+9, 0x1.1a1f9dd47824dp+10},
         {"signal_g4", 0x1.1a1f9dd47824dp+10, 0x1.2c08fefb54dcp+10},
         {"comm_g4", 0x1.2c08fefb54dcp+10, 0x1.55e16a6d22b74p+10},
         {"signal_g5", 0x1.55e16a6d22b74p+10, 0x1.67cacb93ff6e6p+10},
         {"comm_g5", 0x1.67cacb93ff6e6p+10, 0x1.91a33705cd49ap+10},
         {"signal_g6", 0x1.91a33705cd49ap+10, 0x1.a38c982caa00cp+10},
         {"comm_g6", 0x1.a38c982caa00cp+10, 0x1.cd65039e77dcp+10},
         {"signal_g7", 0x1.cd65039e77dcp+10, 0x1.df4e64c554932p+10},
         {"comm_g7", 0x1.df4e64c554932p+10, 0x1.0493681b91373p+11},
         {"signal_g8", 0x1.0493681b91373p+11, 0x1.0d8818aeff92cp+11},
         {"comm_g8", 0x1.0d8818aeff92cp+11, 0x1.22744e67e6806p+11},
         {"signal_g9", 0x1.22744e67e6806p+11, 0x1.2b68fefb54dbfp+11},
         {"comm_g9", 0x1.2b68fefb54dbfp+11, 0x1.3ff1ddfa0436p+11}}}},
      {"reducescatter_no_jitter", [] { return Make4090Cluster(4); },
       WithOptions(ScenarioSpec::Overlap(kShallowShape, CommPrimitive::kReduceScatter),
                   no_jitter),
       {0x1.5d42adc3e6db3p+12, 0x1.63d3a5c89ab8ep+10,
        {{0x1.61b8238fa0aep+6, 0x1.61b8238fa0aep+6, 0x1.fdd0bf926581ep+8},
         {0x1.fdd0bf926581ep+8, 0x1.fdd0bf926581ep+8, 0x1.34fc610b82d95p+10},
         {0x1.34fc610b82d95p+10, 0x1.34fc610b82d95p+10, 0x1.260c0c6201e3dp+12},
         {0x1.260c0c6201e3dp+12, 0x1.260c0c6201e3dp+12, 0x1.5d42adc3e6db3p+12}},
        {{"gemm", 0x0p+0, 0x1.63d3a5c89ab8ep+10}},
        {{"signal_g0", 0x0p+0, 0x1.61b8238fa0aep+6},
         {"comm_g0", 0x1.61b8238fa0aep+6, 0x1.fdd0bf926581ep+8},
         {"signal_g1", 0x1.fdd0bf926581ep+8, 0x1.fdd0bf926581ep+8},
         {"comm_g1", 0x1.fdd0bf926581ep+8, 0x1.34fc610b82d95p+10},
         {"signal_g2", 0x1.34fc610b82d95p+10, 0x1.34fc610b82d95p+10},
         {"comm_g2", 0x1.34fc610b82d95p+10, 0x1.260c0c6201e3dp+12},
         {"signal_g3", 0x1.260c0c6201e3dp+12, 0x1.260c0c6201e3dp+12},
         {"comm_g3", 0x1.260c0c6201e3dp+12, 0x1.5d42adc3e6db3p+12}}}},
      {"mixtral_alltoall_jitter", [] { return MakeA800Cluster(4); },
       ScenarioSpec::Imbalanced(kMixtralShapes, CommPrimitive::kAllToAll),
       {0x1.c5712c3b3dd34p+10, 0x1.9c15ee79f7202p+10,
        {{0x1.711b72076faf4p+5, 0x1.711b72076faf4p+5, 0x1.101a94cf454e4p+7},
         {0x1.101a94cf454e4p+7, 0x1.101a94cf454e4p+7, 0x1.c6a206abc5d3p+7},
         {0x1.f5e33080bbe9dp+7, 0x1.f5e33080bbe9dp+7, 0x1.a1364ba4c5f16p+8},
         {0x1.a1364ba4c5f16p+8, 0x1.a1364ba4c5f16p+8, 0x1.201fa948408a9p+9},
         {0x1.21cf14416e32cp+9, 0x1.21cf14416e32cp+9, 0x1.72d22699a6cfbp+9},
         {0x1.72d22699a6cfbp+9, 0x1.72d22699a6cfbp+9, 0x1.b7c080646f47ap+9},
         {0x1.b7c080646f47ap+9, 0x1.b7c080646f47ap+9, 0x1.051c9262121p+10},
         {0x1.051c9262121p+10, 0x1.051c9262121p+10, 0x1.27b678e8ad842p+10},
         {0x1.27b678e8ad842p+10, 0x1.27b678e8ad842p+10, 0x1.509f321ef2684p+10},
         {0x1.509f321ef2684p+10, 0x1.509f321ef2684p+10, 0x1.78f5fb57ea288p+10},
         {0x1.78f5fb57ea288p+10, 0x1.78f5fb57ea288p+10, 0x1.a1a19e64a9ec4p+10},
         {0x1.a1a19e64a9ec4p+10, 0x1.a1a19e64a9ec4p+10, 0x1.c5712c3b3dd34p+10}},
        {{"gemm", 0x0p+0, 0x1.9e5427d9a477fp+9}},
        {{"signal_g0", 0x0p+0, 0x1.6dd08105494fbp+5},
         {"comm_g0", 0x1.6dd08105494fbp+5, 0x1.101a94cf454e4p+7},
         {"signal_g1", 0x1.101a94cf454e4p+7, 0x1.101a94cf454e4p+7},
         {"comm_g1", 0x1.101a94cf454e4p+7, 0x1.c6a206abc5d3p+7},
         {"signal_g2", 0x1.c6a206abc5d3p+7, 0x1.c6a206abc5d3p+7},
         {"comm_g2", 0x1.c6a206abc5d3p+7, 0x1.a1364ba4c5f16p+8},
         {"signal_g3", 0x1.a1364ba4c5f16p+8, 0x1.a1364ba4c5f16p+8},
         {"comm_g3", 0x1.a1364ba4c5f16p+8, 0x1.201fa948408a9p+9},
         {"signal_g4", 0x1.201fa948408a9p+9, 0x1.201fa948408a9p+9},
         {"comm_g4", 0x1.201fa948408a9p+9, 0x1.72d22699a6cfbp+9},
         {"signal_g5", 0x1.72d22699a6cfbp+9, 0x1.72d22699a6cfbp+9},
         {"comm_g5", 0x1.72d22699a6cfbp+9, 0x1.b7c080646f47ap+9},
         {"signal_g6", 0x1.b7c080646f47ap+9, 0x1.b7c080646f47ap+9},
         {"comm_g6", 0x1.b7c080646f47ap+9, 0x1.051c9262121p+10},
         {"signal_g7", 0x1.051c9262121p+10, 0x1.051c9262121p+10},
         {"comm_g7", 0x1.051c9262121p+10, 0x1.27b678e8ad842p+10},
         {"signal_g8", 0x1.27b678e8ad842p+10, 0x1.27b678e8ad842p+10},
         {"comm_g8", 0x1.27b678e8ad842p+10, 0x1.509f321ef2684p+10},
         {"signal_g9", 0x1.509f321ef2684p+10, 0x1.509f321ef2684p+10},
         {"comm_g9", 0x1.509f321ef2684p+10, 0x1.78f5fb57ea288p+10},
         {"signal_g10", 0x1.78f5fb57ea288p+10, 0x1.78f5fb57ea288p+10},
         {"comm_g10", 0x1.78f5fb57ea288p+10, 0x1.a1a19e64a9ec4p+10},
         {"signal_g11", 0x1.a1a19e64a9ec4p+10, 0x1.a1a19e64a9ec4p+10},
         {"comm_g11", 0x1.a1a19e64a9ec4p+10, 0x1.c5712c3b3dd34p+10}}}},
      {"misconfigured_extra_tiles", [] { return MakeA800Cluster(4); },
       ScenarioSpec::Misconfigured(kLlamaShape, CommPrimitive::kAllReduce, 24),
       {0x1.582ba80d36dep+11, 0x1.2e95c7b292676p+11,
        {{0x1.ea5262c6ad105p+8, 0x1.ea5262c6ad105p+8, 0x1.4fcae646040aap+9},
         {0x1.6f01d2d4c9701p+9, 0x1.6f01d2d4c9701p+9, 0x1.c41cf74291349p+9},
         {0x1.e7b787335f70ap+9, 0x1.e7b787335f70ap+9, 0x1.1f967ea0bcad3p+10},
         {0x1.30273f578d253p+10, 0x1.30273f578d253p+10, 0x1.5b2964a8cc5abp+10},
         {0x1.6bff26a48cfdp+10, 0x1.6bff26a48cfdp+10, 0x1.9719abacf4e5fp+10},
         {0x1.a893f72cef4d2p+10, 0x1.a893f72cef4d2p+10, 0x1.d2bb85ecc7864p+10},
         {0x1.e4cd7a5b8999dp+10, 0x1.e4cd7a5b8999dp+10, 0x1.083cbef72add4p+11},
         {0x1.10ac2a6a186dep+11, 0x1.10ac2a6a186dep+11, 0x1.2658d167bf417p+11},
         {0x1.2e95c7b292676p+11, 0x1.2e95c7b292676p+11, 0x1.439dae36ec91cp+11},
         {0x1.439dae36ec91cp+11, 0x1.439dae36ec91cp+11, 0x1.582ba80d36dep+11}},
        {{"gemm", 0x0p+0, 0x1.2de04ec9b6fcfp+11}},
        {{"signal_g0", 0x0p+0, 0x1.e5dc3f2254088p+8},
         {"comm_g0", 0x1.e5dc3f2254088p+8, 0x1.4fcae646040aap+9},
         {"signal_g1", 0x1.4fcae646040aap+9, 0x1.6b88dff3c29cbp+9},
         {"comm_g1", 0x1.6b88dff3c29cbp+9, 0x1.c41cf74291349p+9},
         {"signal_g2", 0x1.c41cf74291349p+9, 0x1.e53025dc641c9p+9},
         {"comm_g2", 0x1.e53025dc641c9p+9, 0x1.1f967ea0bcad3p+10},
         {"signal_g3", 0x1.1f967ea0bcad3p+10, 0x1.2eb9f1fd516f7p+10},
         {"comm_g3", 0x1.2eb9f1fd516f7p+10, 0x1.5b2964a8cc5abp+10},
         {"signal_g4", 0x1.5b2964a8cc5abp+10, 0x1.6a9626d23dd3cp+10},
         {"comm_g4", 0x1.6a9626d23dd3cp+10, 0x1.9719abacf4e5fp+10},
         {"signal_g5", 0x1.9719abacf4e5fp+10, 0x1.a6d0a0c167cfep+10},
         {"comm_g5", 0x1.a6d0a0c167cfep+10, 0x1.d2bb85ecc7864p+10},
         {"signal_g6", 0x1.d2bb85ecc7864p+10, 0x1.e2ba75b84c352p+10},
         {"comm_g6", 0x1.e2ba75b84c352p+10, 0x1.083cbef72add4p+11},
         {"signal_g7", 0x1.083cbef72add4p+11, 0x1.0f777f13eb984p+11},
         {"comm_g7", 0x1.0f777f13eb984p+11, 0x1.2658d167bf417p+11},
         {"signal_g8", 0x1.2658d167bf417p+11, 0x1.2de04ec9b6fcfp+11},
         {"comm_g8", 0x1.2de04ec9b6fcfp+11, 0x1.439dae36ec91cp+11},
         {"signal_g9", 0x1.439dae36ec91cp+11, 0x1.439dae36ec91cp+11},
         {"comm_g9", 0x1.439dae36ec91cp+11, 0x1.582ba80d36dep+11}}}},
      {"detailed_comm", [] { return Make4090Cluster(4); },
       WithOptions(ScenarioSpec::Overlap(kShallowShape, CommPrimitive::kAllReduce),
                   EngineOptions{.detailed_comm = true}),
       {0x1.5401ad075276cp+13, 0x1.6784bf09e08b2p+10,
        {{0x1.5c0a976fdabd6p+7, 0x1.5c0a976fdabd6p+7, 0x1.9191b53bce495p+10},
         {0x1.9191b53bce495p+10, 0x1.9191b53bce495p+10, 0x1.0a5f2ac69af6ap+13},
         {0x1.0a5f2ac69af6ap+13, 0x1.0a5f2ac69af6ap+13, 0x1.5401ad075276cp+13}},
        {{"gemm", 0x0p+0, 0x1.667e51edac63ep+10}},
        {{"signal_g0", 0x0p+0, 0x1.5923112621fa8p+7},
         {"comm_g0", 0x1.5923112621fa8p+7, 0x1.9191b53bce495p+10},
         {"signal_g1", 0x1.9191b53bce495p+10, 0x1.9191b53bce495p+10},
         {"comm_g1", 0x1.9191b53bce495p+10, 0x1.0a5f2ac69af6ap+13},
         {"signal_g2", 0x1.0a5f2ac69af6ap+13, 0x1.0a5f2ac69af6ap+13},
         {"comm_g2", 0x1.0a5f2ac69af6ap+13, 0x1.5401ad075276cp+13}}}},
      {"signal_poll", [] { return MakeA800Cluster(4); },
       WithOptions(ScenarioSpec::Overlap(kLlamaShape, CommPrimitive::kAllReduce),
                   EngineOptions{.signal_poll_interval_us = 7.0}),
       {0x1.43c6c40cb3d0ep+11, 0x1.2e95c7b292676p+11,
        {{0x1.f0f9a43381f08p+7, 0x1.f8p+7, 0x1.ab5e455c368cdp+8},
         {0x1.ea5262c6ad105p+8, 0x1.f1p+8, 0x1.4d9b246dc7c48p+9},
         {0x1.6f01d2d4c9701p+9, 0x1.6f8p+9, 0x1.c6f5760e19e9dp+9},
         {0x1.e7b787335f70ap+9, 0x1.eap+9, 0x1.200225513f358p+10},
         {0x1.30273f578d253p+10, 0x1.308p+10, 0x1.5b9a850867e8fp+10},
         {0x1.6bff26a48cfdp+10, 0x1.6cp+10, 0x1.96278ebfd8392p+10},
         {0x1.a893f72cef4d2p+10, 0x1.a94p+10, 0x1.d4ec0392cc20bp+10},
         {0x1.e4cd7a5b8999dp+10, 0x1.e68p+10, 0x1.08eca6fda6d39p+11},
         {0x1.10ac2a6a186dep+11, 0x1.11p+11, 0x1.2607e6845a2a6p+11},
         {0x1.2e95c7b292676p+11, 0x1.2ecp+11, 0x1.43c6c40cb3d0ep+11}},
        {{"gemm", 0x0p+0, 0x1.2de04ec9b6fcfp+11}},
        {{"signal_g0", 0x0p+0, 0x1.f8p+7},
         {"comm_g0", 0x1.f8p+7, 0x1.ab5e455c368cdp+8},
         {"signal_g1", 0x1.ab5e455c368cdp+8, 0x1.eap+8},
         {"comm_g1", 0x1.eap+8, 0x1.4d9b246dc7c48p+9},
         {"signal_g2", 0x1.4d9b246dc7c48p+9, 0x1.6cp+9},
         {"comm_g2", 0x1.6cp+9, 0x1.c6f5760e19e9dp+9},
         {"signal_g3", 0x1.c6f5760e19e9dp+9, 0x1.e68p+9},
         {"comm_g3", 0x1.e68p+9, 0x1.200225513f358p+10},
         {"signal_g4", 0x1.200225513f358p+10, 0x1.2ecp+10},
         {"comm_g4", 0x1.2ecp+10, 0x1.5b9a850867e8fp+10},
         {"signal_g5", 0x1.5b9a850867e8fp+10, 0x1.6cp+10},
         {"comm_g5", 0x1.6cp+10, 0x1.96278ebfd8392p+10},
         {"signal_g6", 0x1.96278ebfd8392p+10, 0x1.a78p+10},
         {"comm_g6", 0x1.a78p+10, 0x1.d4ec0392cc20bp+10},
         {"signal_g7", 0x1.d4ec0392cc20bp+10, 0x1.e3p+10},
         {"comm_g7", 0x1.e3p+10, 0x1.08eca6fda6d39p+11},
         {"signal_g8", 0x1.08eca6fda6d39p+11, 0x1.102p+11},
         {"comm_g8", 0x1.102p+11, 0x1.2607e6845a2a6p+11},
         {"signal_g9", 0x1.2607e6845a2a6p+11, 0x1.2ecp+11},
         {"comm_g9", 0x1.2ecp+11, 0x1.43c6c40cb3d0ep+11}}}},
      {"reserved_sms", [] { return MakeA800Cluster(4); },
       WithOptions(ScenarioSpec::Overlap(kLlamaShape, CommPrimitive::kAllReduce),
                   EngineOptions{.reserved_sms = 20}),
       {0x1.9e53cc9720c33p+11, 0x1.894d088a6cf25p+11,
        {{0x1.ea5262c6ad105p+8, 0x1.ea5262c6ad105p+8, 0x1.4cd8541171ce9p+9},
         {0x1.6f01d2d4c9701p+9, 0x1.6f01d2d4c9701p+9, 0x1.c41cf74291349p+9},
         {0x1.e7b787335f70ap+9, 0x1.e7b787335f70ap+9, 0x1.1f967ea0bcad3p+10},
         {0x1.30273f578d253p+10, 0x1.30273f578d253p+10, 0x1.5b2964a8cc5abp+10},
         {0x1.a893f72cef4d2p+10, 0x1.a893f72cef4d2p+10, 0x1.d3ae7c3557361p+10},
         {0x1.e4cd7a5b8999dp+10, 0x1.e4cd7a5b8999dp+10, 0x1.077a848db0e98p+11},
         {0x1.10ac2a6a186dep+11, 0x1.10ac2a6a186dep+11, 0x1.26822c337e7e4p+11},
         {0x1.2e95c7b292676p+11, 0x1.2e95c7b292676p+11, 0x1.44426eb0393afp+11},
         {0x1.6b29acd4086d1p+11, 0x1.6b29acd4086d1p+11, 0x1.8031935862977p+11},
         {0x1.894d088a6cf25p+11, 0x1.894d088a6cf25p+11, 0x1.9e53cc9720c33p+11}},
        {{"gemm", 0x0p+0, 0x1.888eb395eb75ep+11}},
        {{"signal_g0", 0x0p+0, 0x1.e5dc3f2254088p+8},
         {"comm_g0", 0x1.e5dc3f2254088p+8, 0x1.4cd8541171ce9p+9},
         {"signal_g1", 0x1.4cd8541171ce9p+9, 0x1.6b88dff3c29cbp+9},
         {"comm_g1", 0x1.6b88dff3c29cbp+9, 0x1.c41cf74291349p+9},
         {"signal_g2", 0x1.c41cf74291349p+9, 0x1.e53025dc641c9p+9},
         {"comm_g2", 0x1.e53025dc641c9p+9, 0x1.1f967ea0bcad3p+10},
         {"signal_g3", 0x1.1f967ea0bcad3p+10, 0x1.2eb9f1fd516f7p+10},
         {"comm_g3", 0x1.2eb9f1fd516f7p+10, 0x1.5b2964a8cc5abp+10},
         {"signal_g4", 0x1.5b2964a8cc5abp+10, 0x1.a6d0a0c167cfep+10},
         {"comm_g4", 0x1.a6d0a0c167cfep+10, 0x1.d3ae7c3557361p+10},
         {"signal_g5", 0x1.d3ae7c3557361p+10, 0x1.e2ba75b84c352p+10},
         {"comm_g5", 0x1.e2ba75b84c352p+10, 0x1.077a848db0e98p+11},
         {"signal_g6", 0x1.077a848db0e98p+11, 0x1.0f777f13eb984p+11},
         {"comm_g6", 0x1.0f777f13eb984p+11, 0x1.26822c337e7e4p+11},
         {"signal_g7", 0x1.26822c337e7e4p+11, 0x1.2de04ec9b6fcfp+11},
         {"comm_g7", 0x1.2de04ec9b6fcfp+11, 0x1.44426eb0393afp+11},
         {"signal_g8", 0x1.44426eb0393afp+11, 0x1.6a19c91d59ecdp+11},
         {"comm_g8", 0x1.6a19c91d59ecdp+11, 0x1.8031935862977p+11},
         {"signal_g9", 0x1.8031935862977p+11, 0x1.888eb395eb75ep+11},
         {"comm_g9", 0x1.888eb395eb75ep+11, 0x1.9e53cc9720c33p+11}}}},
      {"transient_comm_sms", [] { return MakeA800Cluster(4); },
       WithOptions(ScenarioSpec::Overlap(kLlamaShape, CommPrimitive::kAllReduce),
                   EngineOptions{.persistent_comm_sms = false}),
       {0x1.439c8bbf46384p+11, 0x1.2e95c7b292676p+11,
        {{0x1.f0f9a43381f08p+7, 0x1.f0f9a43381f08p+7, 0x1.a7db1775f7851p+8},
         {0x1.ea5262c6ad105p+8, 0x1.ea5262c6ad105p+8, 0x1.4a4455d11e4cap+9},
         {0x1.6f01d2d4c9701p+9, 0x1.6f01d2d4c9701p+9, 0x1.c67748e2e359ep+9},
         {0x1.e7b787335f70ap+9, 0x1.e7b787335f70ap+9, 0x1.1edde8eaeeeddp+10},
         {0x1.30273f578d253p+10, 0x1.30273f578d253p+10, 0x1.5b41c45ff50e2p+10},
         {0x1.6bff26a48cfdp+10, 0x1.6bff26a48cfdp+10, 0x1.9626b56465362p+10},
         {0x1.a893f72cef4d2p+10, 0x1.a893f72cef4d2p+10, 0x1.d43ffabfbb6ddp+10},
         {0x1.e4cd7a5b8999dp+10, 0x1.e4cd7a5b8999dp+10, 0x1.0813642b6ba08p+11},
         {0x1.10ac2a6a186dep+11, 0x1.10ac2a6a186dep+11, 0x1.25b410ee72984p+11},
         {0x1.2e95c7b292676p+11, 0x1.2e95c7b292676p+11, 0x1.439c8bbf46384p+11}},
        {{"gemm", 0x0p+0, 0x1.2de04ec9b6fcfp+11}},
        {{"signal_g0", 0x0p+0, 0x1.eb7936d33895bp+7},
         {"comm_g0", 0x1.eb7936d33895bp+7, 0x1.a7db1775f7851p+8},
         {"signal_g1", 0x1.a7db1775f7851p+8, 0x1.e5dc3f2254088p+8},
         {"comm_g1", 0x1.e5dc3f2254088p+8, 0x1.4a4455d11e4cap+9},
         {"signal_g2", 0x1.4a4455d11e4cap+9, 0x1.6b88dff3c29cbp+9},
         {"comm_g2", 0x1.6b88dff3c29cbp+9, 0x1.c67748e2e359ep+9},
         {"signal_g3", 0x1.c67748e2e359ep+9, 0x1.e53025dc641c9p+9},
         {"comm_g3", 0x1.e53025dc641c9p+9, 0x1.1edde8eaeeeddp+10},
         {"signal_g4", 0x1.1edde8eaeeeddp+10, 0x1.2eb9f1fd516f7p+10},
         {"comm_g4", 0x1.2eb9f1fd516f7p+10, 0x1.5b41c45ff50e2p+10},
         {"signal_g5", 0x1.5b41c45ff50e2p+10, 0x1.6a9626d23dd3cp+10},
         {"comm_g5", 0x1.6a9626d23dd3cp+10, 0x1.9626b56465362p+10},
         {"signal_g6", 0x1.9626b56465362p+10, 0x1.a6d0a0c167cfep+10},
         {"comm_g6", 0x1.a6d0a0c167cfep+10, 0x1.d43ffabfbb6ddp+10},
         {"signal_g7", 0x1.d43ffabfbb6ddp+10, 0x1.e2ba75b84c352p+10},
         {"comm_g7", 0x1.e2ba75b84c352p+10, 0x1.0813642b6ba08p+11},
         {"signal_g8", 0x1.0813642b6ba08p+11, 0x1.0f777f13eb984p+11},
         {"comm_g8", 0x1.0f777f13eb984p+11, 0x1.25b410ee72984p+11},
         {"signal_g9", 0x1.25b410ee72984p+11, 0x1.2de04ec9b6fcfp+11},
         {"comm_g9", 0x1.2de04ec9b6fcfp+11, 0x1.439c8bbf46384p+11}}}},
      {"transient_comm_sms_no_jitter", [] { return MakeA800Cluster(4); },
       WithOptions(ScenarioSpec::Overlap(kTieShape, CommPrimitive::kAllReduce),
                   EngineOptions{.jitter = false, .persistent_comm_sms = false}),
       {0x1.8fc692943c235p+11, 0x1.672acb93ff6e5p+11,
        {{0x1.e80e64c554933p+7, 0x1.e80e64c554933p+7, 0x1.9b68e029e1b68p+8},
         {0x1.e30e64c554933p+8, 0x1.e30e64c554933p+8, 0x1.4538094646p+9},
         {0x1.690acb93ff6e6p+9, 0x1.690acb93ff6e6p+9, 0x1.bcbba2779b24dp+9},
         {0x1.e08e64c554933p+9, 0x1.e08e64c554933p+9, 0x1.1a1f9dd47824dp+10},
         {0x1.2c08fefb54dcp+10, 0x1.2c08fefb54dcp+10, 0x1.55e16a6d22b74p+10},
         {0x1.67cacb93ff6e6p+10, 0x1.67cacb93ff6e6p+10, 0x1.91a33705cd49ap+10},
         {0x1.a38c982caa00cp+10, 0x1.a38c982caa00cp+10, 0x1.cd65039e77dcp+10},
         {0x1.df4e64c554932p+10, 0x1.df4e64c554932p+10, 0x1.0493681b91373p+11},
         {0x1.0d8818aeff92cp+11, 0x1.0d8818aeff92cp+11, 0x1.22744e67e6806p+11},
         {0x1.2b68fefb54dbfp+11, 0x1.2b68fefb54dbfp+11, 0x1.405534b43bc99p+11},
         {0x1.4949e547aa252p+11, 0x1.4949e547aa252p+11, 0x1.5e361b009112cp+11},
         {0x1.672acb93ff6e5p+11, 0x1.672acb93ff6e5p+11, 0x1.7c17014ce65bfp+11},
         {0x1.7c17014ce65bfp+11, 0x1.7c17014ce65bfp+11, 0x1.8fc692943c235p+11}},
        {{"gemm", 0x0p+0, 0x1.672acb93ff6e5p+11}},
        {{"signal_g0", 0x0p+0, 0x1.e80e64c554933p+7},
         {"comm_g0", 0x1.e80e64c554933p+7, 0x1.9b68e029e1b68p+8},
         {"signal_g1", 0x1.9b68e029e1b68p+8, 0x1.e30e64c554933p+8},
         {"comm_g1", 0x1.e30e64c554933p+8, 0x1.4538094646p+9},
         {"signal_g2", 0x1.4538094646p+9, 0x1.690acb93ff6e6p+9},
         {"comm_g2", 0x1.690acb93ff6e6p+9, 0x1.bcbba2779b24dp+9},
         {"signal_g3", 0x1.bcbba2779b24dp+9, 0x1.e08e64c554933p+9},
         {"comm_g3", 0x1.e08e64c554933p+9, 0x1.1a1f9dd47824dp+10},
         {"signal_g4", 0x1.1a1f9dd47824dp+10, 0x1.2c08fefb54dcp+10},
         {"comm_g4", 0x1.2c08fefb54dcp+10, 0x1.55e16a6d22b74p+10},
         {"signal_g5", 0x1.55e16a6d22b74p+10, 0x1.67cacb93ff6e6p+10},
         {"comm_g5", 0x1.67cacb93ff6e6p+10, 0x1.91a33705cd49ap+10},
         {"signal_g6", 0x1.91a33705cd49ap+10, 0x1.a38c982caa00cp+10},
         {"comm_g6", 0x1.a38c982caa00cp+10, 0x1.cd65039e77dcp+10},
         {"signal_g7", 0x1.cd65039e77dcp+10, 0x1.df4e64c554932p+10},
         {"comm_g7", 0x1.df4e64c554932p+10, 0x1.0493681b91373p+11},
         {"signal_g8", 0x1.0493681b91373p+11, 0x1.0d8818aeff92cp+11},
         {"comm_g8", 0x1.0d8818aeff92cp+11, 0x1.22744e67e6806p+11},
         {"signal_g9", 0x1.22744e67e6806p+11, 0x1.2b68fefb54dbfp+11},
         {"comm_g9", 0x1.2b68fefb54dbfp+11, 0x1.405534b43bc99p+11},
         {"signal_g10", 0x1.405534b43bc99p+11, 0x1.4949e547aa252p+11},
         {"comm_g10", 0x1.4949e547aa252p+11, 0x1.5e361b009112cp+11},
         {"signal_g11", 0x1.5e361b009112cp+11, 0x1.672acb93ff6e5p+11},
         {"comm_g11", 0x1.672acb93ff6e5p+11, 0x1.7c17014ce65bfp+11},
         {"signal_g12", 0x1.7c17014ce65bfp+11, 0x1.7c17014ce65bfp+11},
         {"comm_g12", 0x1.7c17014ce65bfp+11, 0x1.8fc692943c235p+11}}}},
      {"detailed_comm_transient_no_jitter", [] { return MakeA800Cluster(4); },
       WithOptions(ScenarioSpec::Overlap(kTieShape, CommPrimitive::kAllReduce),
                   EngineOptions{.jitter = false,
                                 .detailed_comm = true,
                                 .persistent_comm_sms = false}),
       {0x1.8fc692943c239p+11, 0x1.672acb93ff6e5p+11,
        {{0x1.e80e64c554933p+7, 0x1.e80e64c554933p+7, 0x1.9b68e029e1b68p+8},
         {0x1.e30e64c554933p+8, 0x1.e30e64c554933p+8, 0x1.4538094645ffep+9},
         {0x1.690acb93ff6e6p+9, 0x1.690acb93ff6e6p+9, 0x1.bcbba2779b24ap+9},
         {0x1.e08e64c554933p+9, 0x1.e08e64c554933p+9, 0x1.1a1f9dd47824cp+10},
         {0x1.2c08fefb54dcp+10, 0x1.2c08fefb54dcp+10, 0x1.55e16a6d22b72p+10},
         {0x1.67cacb93ff6e6p+10, 0x1.67cacb93ff6e6p+10, 0x1.91a33705cd498p+10},
         {0x1.a38c982caa00cp+10, 0x1.a38c982caa00cp+10, 0x1.cd65039e77dbep+10},
         {0x1.df4e64c554932p+10, 0x1.df4e64c554932p+10, 0x1.0493681b91373p+11},
         {0x1.0d8818aeff92cp+11, 0x1.0d8818aeff92cp+11, 0x1.22744e67e6808p+11},
         {0x1.2b68fefb54dbfp+11, 0x1.2b68fefb54dbfp+11, 0x1.405534b43bc9bp+11},
         {0x1.4949e547aa252p+11, 0x1.4949e547aa252p+11, 0x1.5e361b009112ep+11},
         {0x1.672acb93ff6e5p+11, 0x1.672acb93ff6e5p+11, 0x1.7c17014ce65c1p+11},
         {0x1.7c17014ce65c1p+11, 0x1.7c17014ce65c1p+11, 0x1.8fc692943c239p+11}},
        {{"gemm", 0x0p+0, 0x1.672acb93ff6e5p+11}},
        {{"signal_g0", 0x0p+0, 0x1.e80e64c554933p+7},
         {"comm_g0", 0x1.e80e64c554933p+7, 0x1.9b68e029e1b68p+8},
         {"signal_g1", 0x1.9b68e029e1b68p+8, 0x1.e30e64c554933p+8},
         {"comm_g1", 0x1.e30e64c554933p+8, 0x1.4538094645ffep+9},
         {"signal_g2", 0x1.4538094645ffep+9, 0x1.690acb93ff6e6p+9},
         {"comm_g2", 0x1.690acb93ff6e6p+9, 0x1.bcbba2779b24ap+9},
         {"signal_g3", 0x1.bcbba2779b24ap+9, 0x1.e08e64c554933p+9},
         {"comm_g3", 0x1.e08e64c554933p+9, 0x1.1a1f9dd47824cp+10},
         {"signal_g4", 0x1.1a1f9dd47824cp+10, 0x1.2c08fefb54dcp+10},
         {"comm_g4", 0x1.2c08fefb54dcp+10, 0x1.55e16a6d22b72p+10},
         {"signal_g5", 0x1.55e16a6d22b72p+10, 0x1.67cacb93ff6e6p+10},
         {"comm_g5", 0x1.67cacb93ff6e6p+10, 0x1.91a33705cd498p+10},
         {"signal_g6", 0x1.91a33705cd498p+10, 0x1.a38c982caa00cp+10},
         {"comm_g6", 0x1.a38c982caa00cp+10, 0x1.cd65039e77dbep+10},
         {"signal_g7", 0x1.cd65039e77dbep+10, 0x1.df4e64c554932p+10},
         {"comm_g7", 0x1.df4e64c554932p+10, 0x1.0493681b91373p+11},
         {"signal_g8", 0x1.0493681b91373p+11, 0x1.0d8818aeff92cp+11},
         {"comm_g8", 0x1.0d8818aeff92cp+11, 0x1.22744e67e6808p+11},
         {"signal_g9", 0x1.22744e67e6808p+11, 0x1.2b68fefb54dbfp+11},
         {"comm_g9", 0x1.2b68fefb54dbfp+11, 0x1.405534b43bc9bp+11},
         {"signal_g10", 0x1.405534b43bc9bp+11, 0x1.4949e547aa252p+11},
         {"comm_g10", 0x1.4949e547aa252p+11, 0x1.5e361b009112ep+11},
         {"signal_g11", 0x1.5e361b009112ep+11, 0x1.672acb93ff6e5p+11},
         {"comm_g11", 0x1.672acb93ff6e5p+11, 0x1.7c17014ce65c1p+11},
         {"signal_g12", 0x1.7c17014ce65c1p+11, 0x1.7c17014ce65c1p+11},
         {"comm_g12", 0x1.7c17014ce65c1p+11, 0x1.8fc692943c239p+11}}}},
      {"single_group", [] { return MakeA800Cluster(4); },
       ScenarioSpec::Overlap(kLlamaShape, CommPrimitive::kAllReduce, &single),
       {0x1.7d30bf5e860ep+11, 0x1.2ea953acc16b9p+11,
        {{0x1.2ea953acc16b9p+11, 0x1.2ea953acc16b9p+11, 0x1.7d30bf5e860ep+11}},
        {{"gemm", 0x0p+0, 0x1.2e2bb793e5996p+11}},
        {{"signal_g0", 0x0p+0, 0x1.2e2bb793e5996p+11},
         {"comm_g0", 0x1.2e2bb793e5996p+11, 0x1.7d30bf5e860ep+11}}}},
      {"mixtral_detailed_poll_transient", [] { return Make4090Cluster(4); },
       WithOptions(ScenarioSpec::Imbalanced(kMixtralShapes, CommPrimitive::kAllToAll),
                   EngineOptions{.detailed_comm = true,
                                 .signal_poll_interval_us = 5.0,
                                 .reserved_sms = 8,
                                 .persistent_comm_sms = false}),
       {0x1.4e8d9b3d07c84p+13, 0x1.c850497ac2f49p+10,
        {{0x1.abcd842a02a4dp+6, 0x1.b8p+6, 0x1.09b15b573eab4p+9},
         {0x1.09b15b573eab4p+9, 0x1.0b8p+9, 0x1.8777b4a2339c2p+10},
         {0x1.955afe4ce7132p+10, 0x1.964p+10, 0x1.2e079096bb98cp+13},
         {0x1.2e079096bb98cp+13, 0x1.2e08p+13, 0x1.4e8d9b3d07c84p+13}},
        {{"gemm", 0x0p+0, 0x1.c94971fe0469dp+9}},
        {{"signal_g0", 0x0p+0, 0x1.b8p+6},
         {"comm_g0", 0x1.b8p+6, 0x1.09b15b573eab4p+9},
         {"signal_g1", 0x1.09b15b573eab4p+9, 0x1.0b8p+9},
         {"comm_g1", 0x1.0b8p+9, 0x1.8777b4a2339c2p+10},
         {"signal_g2", 0x1.8777b4a2339c2p+10, 0x1.888p+10},
         {"comm_g2", 0x1.888p+10, 0x1.2e079096bb98cp+13},
         {"signal_g3", 0x1.2e079096bb98cp+13, 0x1.2e08p+13},
         {"comm_g3", 0x1.2e08p+13, 0x1.4e8d9b3d07c84p+13}}}},
      {"mixtral_forced_coarsened", [] { return MakeA800Cluster(4); },
       ScenarioSpec::Imbalanced(kMixtralShapes, CommPrimitive::kAllToAll, &coarsened),
       {0x1.1932dd8142742p+11, 0x1.9cc9e4cb3dd67p+10,
        {{0x1.5d286c06d793cp+6, 0x1.5d286c06d793cp+6, 0x1.83c5388318a37p+7},
         {0x1.83c5388318a37p+7, 0x1.83c5388318a37p+7, 0x1.3005a00e6c738p+8},
         {0x1.3005a00e6c738p+8, 0x1.3005a00e6c738p+8, 0x1.9f2f012ccbf27p+8},
         {0x1.9f2f012ccbf27p+8, 0x1.9f2f012ccbf27p+8, 0x1.056289ec3e882p+9},
         {0x1.056289ec3e882p+9, 0x1.056289ec3e882p+9, 0x1.3b2a41c3e8d71p+9},
         {0x1.3b2a41c3e8d71p+9, 0x1.3b2a41c3e8d71p+9, 0x1.71a57cf090ca7p+9},
         {0x1.71a57cf090ca7p+9, 0x1.71a57cf090ca7p+9, 0x1.a6c6f2354d085p+9},
         {0x1.a6c6f2354d085p+9, 0x1.a6c6f2354d085p+9, 0x1.de6a4eff10f71p+9},
         {0x1.de6a4eff10f71p+9, 0x1.de6a4eff10f71p+9, 0x1.0a9ce256c36abp+10},
         {0x1.0a9ce256c36abp+10, 0x1.0a9ce256c36abp+10, 0x1.2536cde4993fap+10},
         {0x1.2536cde4993fap+10, 0x1.2536cde4993fap+10, 0x1.410287905f546p+10},
         {0x1.410287905f546p+10, 0x1.410287905f546p+10, 0x1.5c0f9cb1c3f97p+10},
         {0x1.5c0f9cb1c3f97p+10, 0x1.5c0f9cb1c3f97p+10, 0x1.77ae17a822e5dp+10},
         {0x1.77ae17a822e5dp+10, 0x1.77ae17a822e5dp+10, 0x1.9261e461801d3p+10},
         {0x1.9261e461801d3p+10, 0x1.9261e461801d3p+10, 0x1.adbe036bc25bcp+10},
         {0x1.adbe036bc25bcp+10, 0x1.adbe036bc25bcp+10, 0x1.c9194c7ea344bp+10},
         {0x1.c9194c7ea344bp+10, 0x1.c9194c7ea344bp+10, 0x1.e4e987e49c48dp+10},
         {0x1.e4e987e49c48dp+10, 0x1.e4e987e49c48dp+10, 0x1.ffd07c98b7537p+10},
         {0x1.ffd07c98b7537p+10, 0x1.ffd07c98b7537p+10, 0x1.0d4e7516584f7p+11},
         {0x1.0d4e7516584f7p+11, 0x1.0d4e7516584f7p+11, 0x1.1932dd8142742p+11}},
        {{"gemm", 0x0p+0, 0x1.9d1e659b253b9p+9}},
        {{"signal_g0", 0x0p+0, 0x1.6f63c47dd6dc5p+5},
         {"comm_g0", 0x1.6f63c47dd6dc5p+5, 0x1.83c5388318a37p+7},
         {"signal_g1", 0x1.83c5388318a37p+7, 0x1.83c5388318a37p+7},
         {"comm_g1", 0x1.83c5388318a37p+7, 0x1.3005a00e6c738p+8},
         {"signal_g2", 0x1.3005a00e6c738p+8, 0x1.3005a00e6c738p+8},
         {"comm_g2", 0x1.3005a00e6c738p+8, 0x1.9f2f012ccbf27p+8},
         {"signal_g3", 0x1.9f2f012ccbf27p+8, 0x1.9f2f012ccbf27p+8},
         {"comm_g3", 0x1.9f2f012ccbf27p+8, 0x1.056289ec3e882p+9},
         {"signal_g4", 0x1.056289ec3e882p+9, 0x1.056289ec3e882p+9},
         {"comm_g4", 0x1.056289ec3e882p+9, 0x1.3b2a41c3e8d71p+9},
         {"signal_g5", 0x1.3b2a41c3e8d71p+9, 0x1.3b2a41c3e8d71p+9},
         {"comm_g5", 0x1.3b2a41c3e8d71p+9, 0x1.71a57cf090ca7p+9},
         {"signal_g6", 0x1.71a57cf090ca7p+9, 0x1.71a57cf090ca7p+9},
         {"comm_g6", 0x1.71a57cf090ca7p+9, 0x1.a6c6f2354d085p+9},
         {"signal_g7", 0x1.a6c6f2354d085p+9, 0x1.a6c6f2354d085p+9},
         {"comm_g7", 0x1.a6c6f2354d085p+9, 0x1.de6a4eff10f71p+9},
         {"signal_g8", 0x1.de6a4eff10f71p+9, 0x1.de6a4eff10f71p+9},
         {"comm_g8", 0x1.de6a4eff10f71p+9, 0x1.0a9ce256c36abp+10},
         {"signal_g9", 0x1.0a9ce256c36abp+10, 0x1.0a9ce256c36abp+10},
         {"comm_g9", 0x1.0a9ce256c36abp+10, 0x1.2536cde4993fap+10},
         {"signal_g10", 0x1.2536cde4993fap+10, 0x1.2536cde4993fap+10},
         {"comm_g10", 0x1.2536cde4993fap+10, 0x1.410287905f546p+10},
         {"signal_g11", 0x1.410287905f546p+10, 0x1.410287905f546p+10},
         {"comm_g11", 0x1.410287905f546p+10, 0x1.5c0f9cb1c3f97p+10},
         {"signal_g12", 0x1.5c0f9cb1c3f97p+10, 0x1.5c0f9cb1c3f97p+10},
         {"comm_g12", 0x1.5c0f9cb1c3f97p+10, 0x1.77ae17a822e5dp+10},
         {"signal_g13", 0x1.77ae17a822e5dp+10, 0x1.77ae17a822e5dp+10},
         {"comm_g13", 0x1.77ae17a822e5dp+10, 0x1.9261e461801d3p+10},
         {"signal_g14", 0x1.9261e461801d3p+10, 0x1.9261e461801d3p+10},
         {"comm_g14", 0x1.9261e461801d3p+10, 0x1.adbe036bc25bcp+10},
         {"signal_g15", 0x1.adbe036bc25bcp+10, 0x1.adbe036bc25bcp+10},
         {"comm_g15", 0x1.adbe036bc25bcp+10, 0x1.c9194c7ea344bp+10},
         {"signal_g16", 0x1.c9194c7ea344bp+10, 0x1.c9194c7ea344bp+10},
         {"comm_g16", 0x1.c9194c7ea344bp+10, 0x1.e4e987e49c48dp+10},
         {"signal_g17", 0x1.e4e987e49c48dp+10, 0x1.e4e987e49c48dp+10},
         {"comm_g17", 0x1.e4e987e49c48dp+10, 0x1.ffd07c98b7537p+10},
         {"signal_g18", 0x1.ffd07c98b7537p+10, 0x1.ffd07c98b7537p+10},
         {"comm_g18", 0x1.ffd07c98b7537p+10, 0x1.0d4e7516584f7p+11},
         {"signal_g19", 0x1.0d4e7516584f7p+11, 0x1.0d4e7516584f7p+11},
         {"comm_g19", 0x1.0d4e7516584f7p+11, 0x1.1932dd8142742p+11}}}},
      {"mixtral_forced_fitting", [] { return MakeA800Cluster(4); },
       ScenarioSpec::Imbalanced(kMixtralShapes, CommPrimitive::kAllToAll, &fitting),
       {0x1.f7d8c042c3684p+10, 0x1.9cd3f9e5ce729p+10,
        {{0x1.a53eafa937b9cp+7, 0x1.a53eafa937b9cp+7, 0x1.8ef0fd5e0771ep+8},
         {0x1.36da9f16a7084p+9, 0x1.36da9f16a7084p+9, 0x1.d89351d77159fp+9},
         {0x1.35cd70d37ad92p+10, 0x1.35cd70d37ad92p+10, 0x1.a9e79bb5e9d16p+10},
         {0x1.a9e79bb5e9d16p+10, 0x1.a9e79bb5e9d16p+10, 0x1.f7d8c042c3684p+10}},
        {{"gemm", 0x0p+0, 0x1.9d43d842db454p+9}},
        {{"signal_g0", 0x0p+0, 0x1.ffb4b9fedf059p+6},
         {"comm_g0", 0x1.ffb4b9fedf059p+6, 0x1.8ef0fd5e0771ep+8},
         {"signal_g1", 0x1.8ef0fd5e0771ep+8, 0x1.8ef0fd5e0771ep+8},
         {"comm_g1", 0x1.8ef0fd5e0771ep+8, 0x1.d89351d77159fp+9},
         {"signal_g2", 0x1.d89351d77159fp+9, 0x1.d89351d77159fp+9},
         {"comm_g2", 0x1.d89351d77159fp+9, 0x1.a9e79bb5e9d16p+10},
         {"signal_g3", 0x1.a9e79bb5e9d16p+10, 0x1.a9e79bb5e9d16p+10},
         {"comm_g3", 0x1.a9e79bb5e9d16p+10, 0x1.f7d8c042c3684p+10}}}},
  };
}

void PrintTo(const GoldenCase& golden_case, std::ostream* os) { *os << golden_case.name; }

class ExecutorGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(ExecutorGoldenTest, ReplayIsBitExact) {
  const GoldenCase& golden_case = GetParam();
  OverlapEngine engine(golden_case.cluster());
  const Golden actual = Capture(engine.Execute(golden_case.spec));
  EXPECT_TRUE(Same(actual, golden_case.expected))
      << golden_case.name << " replayed as:\n       " << Literal(actual);
}

INSTANTIATE_TEST_SUITE_P(Grid, ExecutorGoldenTest, ::testing::ValuesIn(Cases()),
                         [](const ::testing::TestParamInfo<GoldenCase>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace flo
