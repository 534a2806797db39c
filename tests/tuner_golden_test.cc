// Golden tuner test: pins the winning partition and the predicted latency
// of the online search (Tuner::Tune and Tuner::TuneImbalanced) for
// realistic A800 shapes.
//
// Expected latencies are hex-float literals, so a change to the search
// (pruning, seeding, dominance) must reproduce every winner and every
// predicted latency to the last bit or fail. The grid covers Llama3-70B
// (TP=8) at 10 to 40 waves, Step-Video-T2V (TP=4) at 31 and 61 waves, and
// the Mixtral-8x7B joint multi-rank search at 24 and 28 base waves. On a
// mismatch the test prints the case's actual values in the same literal
// form.
//
// A second test gates the search effort: node counts are deterministic,
// so a ceiling on them cannot flip on a loaded machine.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/core/tuner.h"
#include "src/models/e2e.h"

namespace flo {
namespace {

struct TunerGolden {
  int waves = 0;
  std::vector<int> groups;
  double predicted_us = 0.0;
};

struct TunerGoldenCase {
  std::string name;
  int gpus = 0;
  // One shape: a balanced Tune. Several: the joint multi-rank search.
  std::vector<GemmShape> shapes;
  CommPrimitive primitive = CommPrimitive::kAllReduce;
  TunerGolden expected;
};

std::string Literal(const TunerGolden& golden) {
  std::string out = "{" + std::to_string(golden.waves) + ", {";
  for (size_t i = 0; i < golden.groups.size(); ++i) {
    out += (i == 0 ? "" : ", ") + std::to_string(golden.groups[i]);
  }
  char hex[64];
  std::snprintf(hex, sizeof(hex), "%a", golden.predicted_us);
  return out + "}, " + hex + "}";
}

struct Searched {
  TunerGolden golden;
  size_t nodes = 0;
};

Searched Search(const TunerGoldenCase& c) {
  Tuner tuner(MakeA800Cluster(c.gpus));
  Searched out;
  if (c.shapes.size() == 1) {
    const TunedPlan& plan = tuner.Tune(c.shapes[0], c.primitive);
    out.golden = {plan.effective_waves, plan.partition.group_sizes, plan.predicted_us};
    out.nodes = plan.search_nodes;
  } else {
    const TunedMultiRankPlan& plan = tuner.TuneImbalanced(c.shapes, c.primitive);
    out.golden = {plan.base_waves, plan.base.group_sizes, plan.predicted_us};
    out.nodes = plan.search_nodes;
  }
  return out;
}

TunerGoldenCase Llama(int64_t tokens, int64_t k, CommPrimitive primitive, TunerGolden expected) {
  return {"llama3_70b_" + std::to_string(tokens) + "x" + std::to_string(k) + "_" +
              CommPrimitiveName(primitive),
          8, {GemmShape{tokens, 8192, k}}, primitive, std::move(expected)};
}

TunerGoldenCase StepVideo(int64_t tokens, int64_t k, TunerGolden expected) {
  return {"step_video_" + std::to_string(tokens) + "x" + std::to_string(k), 4,
          {GemmShape{tokens, 6144, k}}, CommPrimitive::kAllReduce, std::move(expected)};
}

TunerGoldenCase Mixtral(int64_t tokens, double imbalance, TunerGolden expected) {
  return {"mixtral_joint_" + std::to_string(tokens) + "_skew" + std::to_string(imbalance), 8,
          ImbalancedShapes(GemmShape{tokens, 4096, 7168}, 8, imbalance),
          CommPrimitive::kAllToAll, std::move(expected)};
}

constexpr CommPrimitive kAR = CommPrimitive::kAllReduce;
constexpr CommPrimitive kRS = CommPrimitive::kReduceScatter;

std::vector<TunerGoldenCase> Cases() {
  return {
      Llama(4096, 1024, kAR, {10, {1, 5, 4}, 0x1.04b7338ba856ep+10}),
      Llama(4096, 3584, kAR, {10, {1, 1, 2, 3, 3}, 0x1.6219972b59afcp+10}),
      Llama(6144, 1024, kAR, {15, {1, 5, 5, 4}, 0x1.6f4b8508cd187p+10}),
      Llama(6144, 3584, kAR, {15, {1, 1, 1, 3, 3, 3, 3}, 0x1.ec5366be01e53p+10}),
      Llama(8192, 1024, kAR, {20, {1, 5, 10, 4}, 0x1.bc8ef96cea802p+10}),
      Llama(8192, 3584, kAR, {20, {1, 1, 1, 1, 3, 4, 3, 3, 3}, 0x1.3b469b28550d4p+11}),
      Llama(12288, 1024, kAR, {30, {1, 3, 7, 15, 4}, 0x1.3a335fa71654bp+11}),
      Llama(12288, 3584, kAR,
            {30, {1, 1, 1, 1, 2, 4, 4, 3, 3, 2, 2, 3, 3}, 0x1.c5806abafd429p+11}),
      Llama(16384, 1024, kAR, {40, {1, 5, 11, 19, 4}, 0x1.891b7d0f52a9p+11}),
      Llama(16384, 3584, kAR,
            {40, {1, 1, 1, 1, 1, 1, 1, 6, 4, 5, 2, 3, 4, 3, 3, 3}, 0x1.27de78b4bbb74p+12}),
      Llama(4096, 1024, kRS, {10, {2, 4, 4}, 0x1.3870bbd8aaa5ap+9}),
      Llama(4096, 3584, kRS, {10, {1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 0x1.3312cb6716dc8p+10}),
      Llama(6144, 1024, kRS, {15, {1, 2, 4, 4, 4}, 0x1.aaafef0d50f19p+9}),
      Llama(6144, 3584, kRS,
            {15, {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 0x1.be4efbd7a5a4bp+10}),
      Llama(8192, 1024, kRS, {20, {1, 2, 4, 4, 5, 4}, 0x1.0c2220453ad99p+10}),
      Llama(8192, 3584, kRS,
            {20, {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
                 0x1.24c7faa519acdp+11}),
      Llama(12288, 1024, kRS, {30, {6, 6, 6, 6, 6}, 0x1.76ea45fe7122p+10}),
      Llama(12288, 3584, kRS,
            {30, {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                   1, 1, 1}, 0x1.b01033347963ep+11}),
      Llama(16384, 1024, kRS, {40, {1, 3, 4, 5, 5, 6, 6, 6, 4}, 0x1.de073b4998ba2p+10}),
      Llama(16384, 3584, kRS,
            {40, {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                   1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 0x1.1db109bb70526p+12}),
      StepVideo(16896, 1536, {31, {2, 4, 5, 7, 9, 4}, 0x1.243ecef05aa16p+11}),
      StepVideo(16896, 6144,
            {31, {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1},
                 0x1.6b93ceb145c1ap+12}),
      StepVideo(33792, 1536, {61, {1, 3, 5, 7, 8, 10, 11, 12, 4}, 0x1.07ade6cb34334p+12}),
      StepVideo(33792, 6144,
            {61, {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                   1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
                   1, 1}, 0x1.60fa8110edb34p+13}),
      Mixtral(16384, 1.2,
            {24, {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 6, 4, 1}, 0x1.4327864822b55p+12}),
      Mixtral(16384, 1.4, {28, {1, 1, 1, 1, 1, 1, 1, 1, 2, 5, 11, 2}, 0x1.78a18c6fbfa95p+12}),
  };
}

TEST(TunerGoldenTest, WinnersAndPredictedLatenciesAreBitExact) {
  for (const TunerGoldenCase& c : Cases()) {
    const TunerGolden actual = Search(c).golden;
    EXPECT_TRUE(actual.waves == c.expected.waves && actual.groups == c.expected.groups &&
                actual.predicted_us == c.expected.predicted_us)
        << c.name << ": actual " << Literal(actual) << "\n  expected "
        << Literal(c.expected);
  }
}

// The search's node counts are deterministic, so these ceilings hold on
// any machine. The Step-Video shape at 61 waves is the single most
// expensive search in the planner benchmark's grid; the Mixtral case is
// the deepest joint search.
TEST(TunerGoldenTest, SearchNodesStayUnderTheirCeilings) {
  const Searched step_video = Search(StepVideo(33792, 1536, {}));
  EXPECT_EQ(step_video.golden.waves, 61);
  EXPECT_LE(step_video.nodes, 213041u / 2) << "Step-Video 61-wave search";
  const Searched mixtral = Search(Mixtral(16384, 1.4, {}));
  EXPECT_EQ(mixtral.golden.waves, 28);
  EXPECT_LE(mixtral.nodes, 15669u) << "Mixtral 28-base-wave joint search";
}

}  // namespace
}  // namespace flo
