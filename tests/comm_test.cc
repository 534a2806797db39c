#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "src/comm/cost_model.h"
#include "src/comm/functional.h"
#include "src/comm/primitive.h"
#include "src/hw/interconnect.h"
#include "src/util/rng.h"

namespace flo {
namespace {

std::vector<std::vector<float>> RandomRankBuffers(int ranks, size_t elems, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> buffers(ranks, std::vector<float>(elems));
  for (auto& buffer : buffers) {
    for (auto& v : buffer) {
      v = static_cast<float>(rng.NextDouble(-2.0, 2.0));
    }
  }
  return buffers;
}

TEST(PrimitiveTest, WireFactorsMatchRingAlgebra) {
  EXPECT_DOUBLE_EQ(WireFactor(CommPrimitive::kAllReduce, 4), 1.5);
  EXPECT_DOUBLE_EQ(WireFactor(CommPrimitive::kReduceScatter, 4), 0.75);
  EXPECT_DOUBLE_EQ(WireFactor(CommPrimitive::kAllGather, 2), 0.5);
  EXPECT_DOUBLE_EQ(WireFactor(CommPrimitive::kAllToAll, 8), 0.875);
}

TEST(PrimitiveTest, NamesRoundTrip) {
  EXPECT_EQ(CommPrimitiveFromName("ar"), CommPrimitive::kAllReduce);
  EXPECT_EQ(CommPrimitiveFromName("AllReduce"), CommPrimitive::kAllReduce);
  EXPECT_EQ(CommPrimitiveFromName("rs"), CommPrimitive::kReduceScatter);
  EXPECT_EQ(CommPrimitiveFromName("a2a"), CommPrimitive::kAllToAll);
  EXPECT_STREQ(CommPrimitiveName(CommPrimitive::kAllGather), "AllGather");
}

TEST(CostModelTest, LatencyMonotoneInBytes) {
  CommCostModel model(MakePcie4090(), 4);
  double previous = 0.0;
  for (double bytes = 1 << 16; bytes < 1e9; bytes *= 2) {
    const double latency = model.LatencyUs(CommPrimitive::kAllReduce, bytes);
    EXPECT_GT(latency, previous);
    previous = latency;
  }
}

TEST(CostModelTest, AllReduceCostsMoreThanReduceScatter) {
  CommCostModel model(MakeNvlinkA800(), 4);
  const double bytes = 64.0 * 1024 * 1024;
  EXPECT_GT(model.LatencyUs(CommPrimitive::kAllReduce, bytes),
            model.LatencyUs(CommPrimitive::kReduceScatter, bytes));
}

TEST(CostModelTest, SegmentedCallsCostMoreThanOneBigCall) {
  // Communication fragmentation (Sec. 3.2.2): k calls of size s/k exceed
  // one call of size s.
  CommCostModel model(MakePcie4090(), 4);
  const double bytes = 128.0 * 1024 * 1024;
  const double one_call = model.LatencyUs(CommPrimitive::kAllReduce, bytes);
  for (int k : {2, 8, 32}) {
    const double split = k * model.LatencyUs(CommPrimitive::kAllReduce, bytes / k);
    EXPECT_GT(split, one_call) << "k=" << k;
  }
}

TEST(CostModelTest, AlgorithmBandwidthSaturates) {
  CommCostModel model(MakeNvlinkA800(), 4);
  const double small = model.AlgorithmBandwidth(CommPrimitive::kAllReduce, 1 << 18);
  const double large = model.AlgorithmBandwidth(CommPrimitive::kAllReduce, 1 << 30);
  EXPECT_LT(small, 0.3 * large);
}

TEST(CostModelTest, KneeFindsTheBandwidthCliff) {
  CommCostModel model(MakePcie4090(), 4);
  const double knee = model.BandwidthKneeBytes(CommPrimitive::kAllReduce, 0.8);
  EXPECT_GT(knee, 1 << 18);
  EXPECT_LT(knee, 1 << 30);
  EXPECT_LT(model.AlgorithmBandwidth(CommPrimitive::kAllReduce, knee / 8),
            model.AlgorithmBandwidth(CommPrimitive::kAllReduce, knee));
}

TEST(CostModelTest, SampledCurveInterpolatesLatency) {
  CommCostModel model(MakeNvlinkA800(), 8);
  const Curve curve = model.SampleLatencyCurve(CommPrimitive::kReduceScatter, 1 << 16, 1 << 30);
  for (double bytes : {5e5, 3e6, 7e7, 5e8}) {
    const double exact = model.LatencyUs(CommPrimitive::kReduceScatter, bytes);
    EXPECT_NEAR(curve.Eval(bytes), exact, 0.05 * exact);
  }
}

class FunctionalRankTest : public ::testing::TestWithParam<int> {};

TEST_P(FunctionalRankTest, AllReduceSumsEverywhere) {
  const int ranks = GetParam();
  auto buffers = RandomRankBuffers(ranks, 64, 10 + ranks);
  std::vector<float> expected(64, 0.0f);
  for (const auto& buffer : buffers) {
    for (size_t i = 0; i < expected.size(); ++i) {
      expected[i] += buffer[i];
    }
  }
  std::vector<std::span<float>> spans;
  for (auto& buffer : buffers) {
    spans.emplace_back(buffer);
  }
  FunctionalAllReduce(spans);
  for (const auto& buffer : buffers) {
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_FLOAT_EQ(buffer[i], expected[i]);
    }
  }
}

TEST_P(FunctionalRankTest, ReduceScatterDeliversSlices) {
  const int ranks = GetParam();
  const size_t slice = 16;
  auto buffers = RandomRankBuffers(ranks, ranks * slice, 20 + ranks);
  std::vector<std::span<const float>> in;
  for (const auto& buffer : buffers) {
    in.emplace_back(buffer);
  }
  std::vector<std::vector<float>> out_storage(ranks, std::vector<float>(slice));
  std::vector<std::span<float>> out;
  for (auto& o : out_storage) {
    out.emplace_back(o);
  }
  FunctionalReduceScatter(in, out);
  for (int r = 0; r < ranks; ++r) {
    for (size_t i = 0; i < slice; ++i) {
      float expected = 0.0f;
      for (const auto& buffer : buffers) {
        expected += buffer[r * slice + i];
      }
      EXPECT_FLOAT_EQ(out_storage[r][i], expected);
    }
  }
}

TEST_P(FunctionalRankTest, AllGatherConcatenates) {
  const int ranks = GetParam();
  const size_t per_rank = 8;
  auto buffers = RandomRankBuffers(ranks, per_rank, 30 + ranks);
  std::vector<std::span<const float>> in;
  for (const auto& buffer : buffers) {
    in.emplace_back(buffer);
  }
  std::vector<std::vector<float>> out_storage(ranks,
                                              std::vector<float>(ranks * per_rank));
  std::vector<std::span<float>> out;
  for (auto& o : out_storage) {
    out.emplace_back(o);
  }
  FunctionalAllGather(in, out);
  for (int r = 0; r < ranks; ++r) {
    for (int src = 0; src < ranks; ++src) {
      for (size_t i = 0; i < per_rank; ++i) {
        EXPECT_FLOAT_EQ(out_storage[r][src * per_rank + i], buffers[src][i]);
      }
    }
  }
}

TEST_P(FunctionalRankTest, ReduceScatterThenAllGatherEqualsAllReduce) {
  const int ranks = GetParam();
  const size_t slice = 12;
  auto buffers = RandomRankBuffers(ranks, ranks * slice, 40 + ranks);
  auto ar_copy = buffers;
  std::vector<std::span<float>> ar_spans;
  for (auto& buffer : ar_copy) {
    ar_spans.emplace_back(buffer);
  }
  FunctionalAllReduce(ar_spans);

  std::vector<std::span<const float>> in;
  for (const auto& buffer : buffers) {
    in.emplace_back(buffer);
  }
  std::vector<std::vector<float>> scattered(ranks, std::vector<float>(slice));
  std::vector<std::span<float>> out;
  for (auto& s : scattered) {
    out.emplace_back(s);
  }
  FunctionalReduceScatter(in, out);
  std::vector<std::span<const float>> gather_in;
  for (const auto& s : scattered) {
    gather_in.emplace_back(s);
  }
  std::vector<std::vector<float>> gathered(ranks, std::vector<float>(ranks * slice));
  std::vector<std::span<float>> gather_out;
  for (auto& g : gathered) {
    gather_out.emplace_back(g);
  }
  FunctionalAllGather(gather_in, gather_out);
  for (int r = 0; r < ranks; ++r) {
    for (size_t i = 0; i < ranks * slice; ++i) {
      EXPECT_FLOAT_EQ(gathered[r][i], ar_copy[r][i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, FunctionalRankTest, ::testing::Values(2, 3, 4, 8));

TEST(FunctionalAllToAllTest, ExchangesSegmentsBySendCounts) {
  const int ranks = 3;
  // src r sends (r+1) elements to every dst, values encode (src, dst).
  std::vector<std::vector<int64_t>> counts(ranks, std::vector<int64_t>(ranks));
  std::vector<std::vector<float>> in_storage(ranks);
  for (int src = 0; src < ranks; ++src) {
    for (int dst = 0; dst < ranks; ++dst) {
      counts[src][dst] = src + 1;
      for (int64_t i = 0; i < src + 1; ++i) {
        in_storage[src].push_back(100.0f * src + 10.0f * dst + static_cast<float>(i));
      }
    }
  }
  std::vector<std::span<const float>> in;
  for (const auto& buffer : in_storage) {
    in.emplace_back(buffer);
  }
  std::vector<std::vector<float>> out_storage(ranks);
  std::vector<std::span<float>> out;
  for (int dst = 0; dst < ranks; ++dst) {
    int64_t total = 0;
    for (int src = 0; src < ranks; ++src) {
      total += counts[src][dst];
    }
    out_storage[dst].assign(total, 0.0f);
  }
  for (auto& o : out_storage) {
    out.emplace_back(o);
  }
  FunctionalAllToAll(in, counts, out);
  for (int dst = 0; dst < ranks; ++dst) {
    int64_t cursor = 0;
    for (int src = 0; src < ranks; ++src) {
      for (int64_t i = 0; i < counts[src][dst]; ++i) {
        EXPECT_FLOAT_EQ(out_storage[dst][cursor++],
                        100.0f * src + 10.0f * dst + static_cast<float>(i));
      }
    }
  }
}

TEST(FunctionalAllToAllTest, ZeroCountsAreLegal) {
  std::vector<std::vector<int64_t>> counts{{0, 2}, {1, 0}};
  std::vector<std::vector<float>> in_storage{{1.0f, 2.0f}, {3.0f}};
  std::vector<std::span<const float>> in{in_storage[0], in_storage[1]};
  std::vector<std::vector<float>> out_storage{{0.0f}, {0.0f, 0.0f}};
  std::vector<std::span<float>> out{out_storage[0], out_storage[1]};
  FunctionalAllToAll(in, counts, out);
  EXPECT_FLOAT_EQ(out_storage[0][0], 3.0f);
  EXPECT_FLOAT_EQ(out_storage[1][0], 1.0f);
  EXPECT_FLOAT_EQ(out_storage[1][1], 2.0f);
}

}  // namespace
}  // namespace flo
