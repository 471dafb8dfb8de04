#include "net/uplink.h"

#include <gtest/gtest.h>

namespace dive::net {
namespace {

using util::from_millis;
using util::from_seconds;

UplinkConfig test_config() {
  UplinkConfig cfg;
  cfg.propagation_delay = from_millis(10);
  cfg.head_timeout = from_millis(300);
  return cfg;
}

/// A head-of-line timeout no test transmission below comes near, so
/// frames are never dropped: plain FIFO serialization.
UplinkConfig patient_config() {
  UplinkConfig cfg = test_config();
  cfg.head_timeout = from_seconds(600);
  return cfg;
}

TEST(Uplink, SerializationPlusPropagation) {
  Uplink link(std::make_shared<ConstantBandwidth>(1000.0), patient_config());
  const auto r = link.transmit_with_timeout(500.0, from_seconds(1));
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.started, from_seconds(1));
  EXPECT_EQ(r.sent_complete, from_millis(1500));
  EXPECT_EQ(r.arrival, from_millis(1510));
}

TEST(Uplink, FifoQueueing) {
  Uplink link(std::make_shared<ConstantBandwidth>(1000.0), patient_config());
  link.transmit_with_timeout(1000.0, 0);  // busy until t=1s
  const auto r = link.transmit_with_timeout(500.0, from_millis(100));
  EXPECT_EQ(r.started, from_seconds(1));  // waited for the queue head
  EXPECT_EQ(r.sent_complete, from_millis(1500));
}

TEST(Uplink, IdleGapBetweenTransmissions) {
  Uplink link(std::make_shared<ConstantBandwidth>(1000.0), patient_config());
  link.transmit_with_timeout(100.0, 0);
  const auto r = link.transmit_with_timeout(100.0, from_seconds(5));
  EXPECT_EQ(r.started, from_seconds(5));  // link was idle
}

TEST(Uplink, TimeoutDropsSlowFrame) {
  // 1000 B at 1000 B/s takes 1 s > 300 ms timeout.
  Uplink link(std::make_shared<ConstantBandwidth>(1000.0), test_config());
  const auto r = link.transmit_with_timeout(1000.0, from_seconds(2));
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.gave_up_at, from_seconds(2) + from_millis(300));
  // The radio is idle again after the drop.
  EXPECT_EQ(link.busy_until(), r.gave_up_at);
}

TEST(Uplink, TimeoutPassesFastFrame) {
  Uplink link(std::make_shared<ConstantBandwidth>(1000.0), test_config());
  const auto r = link.transmit_with_timeout(200.0, 0);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.sent_complete, from_millis(200));
}

TEST(Uplink, TimeoutCountsFromQueueHead) {
  // The paper's timer starts when the frame becomes the queue head.
  Uplink link(std::make_shared<ConstantBandwidth>(1000.0), test_config());
  for (int i = 0; i < 4; ++i)
    ASSERT_TRUE(link.transmit_with_timeout(250.0, 0).delivered);
  // The link is busy until 1 s; this frame waits 900 ms for the head,
  // longer than the timeout, and still goes through.
  const auto r = link.transmit_with_timeout(250.0, from_millis(100));
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.started, from_seconds(1));
  EXPECT_EQ(r.sent_complete, from_millis(1250));
  // A frame that cannot fit gives up one timeout after reaching the head,
  // not after its enqueue.
  const auto d = link.transmit_with_timeout(400.0, from_millis(100));
  EXPECT_FALSE(d.delivered);
  EXPECT_EQ(d.gave_up_at, from_millis(1250) + from_millis(300));
}

TEST(Uplink, OutageTriggersTimeout) {
  auto base = std::make_shared<ConstantBandwidth>(10'000.0);
  auto trace = std::make_shared<OutageBandwidth>(
      base, std::vector<OutageBandwidth::Outage>{
                {from_seconds(1), from_seconds(2)}});
  Uplink link(trace, test_config());
  // Before the outage: fine.
  EXPECT_TRUE(link.transmit_with_timeout(1000.0, 0).delivered);
  // During the outage: dropped after the timeout.
  const auto r = link.transmit_with_timeout(1000.0, from_millis(1100));
  EXPECT_FALSE(r.delivered);
  // After the outage: recovers.
  EXPECT_TRUE(link.transmit_with_timeout(1000.0, from_millis(2100)).delivered);
}

TEST(Uplink, TimeoutExactlyEqualToSerializationDelivers) {
  // Boundary: 300 B at 1000 B/s serializes in exactly the 300 ms
  // head-of-line timeout. The drop condition is strictly `complete >
  // deadline`, so an exact fit still goes through.
  Uplink link(std::make_shared<ConstantBandwidth>(1000.0), test_config());
  const auto r = link.transmit_with_timeout(300.0, from_seconds(1));
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.sent_complete, from_seconds(1) + from_millis(300));
  // One byte more and the same frame is dropped at the deadline.
  Uplink slow(std::make_shared<ConstantBandwidth>(1000.0), test_config());
  const auto d = slow.transmit_with_timeout(301.0, from_seconds(1));
  EXPECT_FALSE(d.delivered);
  EXPECT_EQ(d.gave_up_at, from_seconds(1) + from_millis(300));
}

TEST(Uplink, NullTraceRejected) {
  EXPECT_THROW(Uplink(nullptr, test_config()), std::invalid_argument);
}

}  // namespace
}  // namespace dive::net
