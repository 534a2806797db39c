#include <gtest/gtest.h>

#include "src/sim/device.h"
#include "src/sim/timeline.h"

namespace flo {
namespace {

TEST(DeviceTest, TracksOccupancy) {
  Device device(0, 100);
  EXPECT_EQ(device.sm_available(), 100);
  device.AcquireSms(30);
  EXPECT_EQ(device.sm_available(), 70);
  EXPECT_EQ(device.ComputeSms(), 70);
  device.ReleaseSms(30);
  EXPECT_EQ(device.sm_available(), 100);
}

TEST(DeviceTest, ComputeSmsFloorsAtOne) {
  Device device(0, 8);
  device.AcquireSms(20);  // over-subscription allowed
  EXPECT_EQ(device.ComputeSms(), 1);
  device.ReleaseSms(20);
}

TEST(DeviceDeathTest, OverReleaseAborts) {
  Device device(0, 8);
  EXPECT_DEATH(device.ReleaseSms(1), "releasing more");
}

TEST(TimelineTest, RecordsSpansInOrder) {
  Timeline timeline;
  timeline.Add("first", 0.0, 2.0);
  timeline.Add("second", 2.0, 5.0);
  ASSERT_EQ(timeline.spans().size(), 2u);
  EXPECT_EQ(timeline.spans()[0].name, "first");
  EXPECT_DOUBLE_EQ(timeline.spans()[0].end, 2.0);
  EXPECT_DOUBLE_EQ(timeline.spans()[1].start, 2.0);
  EXPECT_DOUBLE_EQ(timeline.BusyTime(), 5.0);
  EXPECT_DOUBLE_EQ(timeline.EndTime(), 5.0);
}

TEST(TimelineTest, FindFirstMatchesSubstring) {
  Timeline timeline;
  timeline.Add("gemm", 0.0, 5.0);
  timeline.Add("comm_g0", 5.0, 9.0);
  const TaskSpan* span = timeline.FindFirst("comm");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->name, "comm_g0");
  EXPECT_EQ(timeline.FindFirst("nccl"), nullptr);
}

}  // namespace
}  // namespace flo
