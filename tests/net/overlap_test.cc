// SimNetwork::Overlap: scatter-gather accounting. Lanes run side by
// side, charges within a lane run in sequence, a nested overlap closes
// into its parent's lane, and the endpoint's link bounds the whole scope
// from below (the serialization floor). Counts and per-endpoint wire
// time never change.
#include <gtest/gtest.h>

#include <vector>

#include "common/status.h"
#include "common/trace.h"
#include "common/trace_check.h"
#include "net/sim_network.h"

namespace orchestra::net {
namespace {

constexpr int64_t kHop = 500;  // default one-way latency, 0-byte message

TEST(OverlapTest, TwoLanesCostTheSlowerLane) {
  SimNetwork network;
  {
    SimNetwork::Overlap overlap(&network, 1);
    overlap.Lane(0);
    network.Charge(1, 3, 0);
    overlap.Lane(1);
    network.Charge(1, 2, 0);
    network.Charge(1, 3, 0);  // the same lane: 5 hops in sequence
    // Nothing moves the clock until the overlap closes.
    EXPECT_EQ(network.StatsFor(1).micros, 0);
  }
  EXPECT_EQ(network.StatsFor(1).micros, 5 * kHop);
  EXPECT_EQ(network.StatsFor(1).messages, 8);
  // The global total stays the sum of every message's cost.
  EXPECT_EQ(network.global().micros, 8 * kHop);
}

TEST(OverlapTest, WireTimeIsStopAndWaitPerEndpoint) {
  SimNetwork network;
  {
    SimNetwork::Overlap overlap(&network, 1);
    overlap.Lane(0);
    network.Charge(1, 3, 0);
    overlap.Lane(1);
    network.Charge(1, 2, 0);
  }
  network.Charge(2, 4, 0);  // no overlap: both clocks agree
  // Overlapping moves the waited time, never the wire time.
  EXPECT_EQ(network.StatsFor(1).micros, 3 * kHop);
  EXPECT_EQ(network.StatsFor(1).wire_micros, 5 * kHop);
  EXPECT_EQ(network.StatsFor(2).micros, 4 * kHop);
  EXPECT_EQ(network.StatsFor(2).wire_micros, 4 * kHop);
  // The global total is the per-endpoint wire times, summed.
  EXPECT_EQ(network.global().micros, network.StatsFor(1).wire_micros +
                                         network.StatsFor(2).wire_micros);
  EXPECT_EQ(network.global().wire_micros, network.global().micros);
}

TEST(OverlapTest, NestedFanOutCostsOneHopInsideItsLane) {
  SimNetwork network;
  {
    SimNetwork::Overlap outer(&network, 1);
    outer.Lane(0);
    network.Charge(1, 2, 0);  // route to the primary
    {
      SimNetwork::Overlap fanout(&network, 1);
      for (uint64_t replica = 0; replica < 4; ++replica) {
        fanout.Lane(replica);
        network.Charge(1, 1, 0);
      }
    }
    outer.Lane(1);
    network.Charge(1, 2, 0);
  }
  // Lane 0: 2 route hops + 1 fan-out hop; lane 1: 2 hops.
  EXPECT_EQ(network.StatsFor(1).micros, 3 * kHop);
  EXPECT_EQ(network.StatsFor(1).messages, 8);
}

TEST(OverlapTest, SerializationFloorBindsForLargePayloads) {
  NetworkConfig config;
  config.one_way_latency_micros = 500;
  config.bytes_per_micro = 12.5;
  SimNetwork network(config);
  constexpr int64_t kBytes = 125'000;  // 10 ms on the wire
  {
    SimNetwork::Overlap overlap(&network, 1);
    for (uint64_t lane = 0; lane < 3; ++lane) {
      overlap.Lane(lane);
      network.Charge(1, 1, kBytes);
    }
  }
  // Each lane alone takes 10.5 ms, but the link must carry 30 ms of
  // bytes.
  EXPECT_EQ(network.MessageCostMicros(kBytes), 10'500);
  EXPECT_EQ(network.StatsFor(1).micros, 30'000);

  // Small messages: the slowest lane binds, not the floor.
  SimNetwork small(config);
  {
    SimNetwork::Overlap overlap(&small, 1);
    for (uint64_t lane = 0; lane < 3; ++lane) {
      overlap.Lane(lane);
      small.Charge(1, 1, 125);
    }
  }
  EXPECT_EQ(small.StatsFor(1).micros, 510);
}

TEST(OverlapTest, CountsEqualSequentialCharging) {
  struct Send {
    uint64_t lane;
    int64_t hops;
    int64_t bytes;
  };
  const std::vector<Send> sends = {
      {0, 3, 40}, {1, 1, 900}, {0, 1, 16}, {2, 4, 24}, {1, 2, 8}};
  SimNetwork sequential;
  SimNetwork overlapped;
  for (const Send& s : sends) sequential.Charge(7, s.hops, s.bytes);
  {
    SimNetwork::Overlap overlap(&overlapped, 7);
    for (const Send& s : sends) {
      overlap.Lane(s.lane);
      overlapped.Charge(7, s.hops, s.bytes);
    }
  }
  EXPECT_EQ(overlapped.StatsFor(7).messages, sequential.StatsFor(7).messages);
  EXPECT_EQ(overlapped.StatsFor(7).bytes, sequential.StatsFor(7).bytes);
  EXPECT_EQ(overlapped.global().messages, sequential.global().messages);
  EXPECT_EQ(overlapped.global().bytes, sequential.global().bytes);
  EXPECT_EQ(overlapped.global().micros, sequential.global().micros);
  EXPECT_LT(overlapped.StatsFor(7).micros, sequential.StatsFor(7).micros);
}

TEST(OverlapTest, OtherEndpointsStayStopAndWait) {
  SimNetwork network;
  {
    SimNetwork::Overlap overlap(&network, 1);
    overlap.Lane(0);
    network.Charge(1, 2, 0);
    overlap.Lane(1);
    network.Charge(2, 2, 0);
    network.Charge(2, 1, 0);
  }
  EXPECT_EQ(network.StatsFor(1).micros, 2 * kHop);
  EXPECT_EQ(network.StatsFor(2).micros, 3 * kHop);
}

TEST(OverlapTest, TraceInstantsFallInsideTheOverlap) {
  SimNetwork network;
  Tracer tracer("sim");
  network.set_sim_tracer(&tracer);
  network.Charge(1, 1, 0);  // the overlap opens at 500
  {
    SimNetwork::Overlap overlap(&network, 1, "phase");
    overlap.Lane(0);
    network.Charge(1, 1, 0);
    overlap.Lane(1);
    network.Charge(1, 2, 0);
    {
      SimNetwork::Overlap fanout(&network, 1);
      fanout.Lane(0);
      network.Charge(1, 1, 0);
      fanout.Lane(1);
      network.Charge(1, 1, 0);
    }
  }
  network.Charge(1, 1, 0);
  network.set_sim_tracer(nullptr);

  const std::vector<testing::ParsedEvent> events =
      testing::ParseEvents(tracer.ToJson());
  long long begin = -1;
  long long end = -1;
  std::vector<long long> sends;
  std::vector<long long> recvs;
  for (const testing::ParsedEvent& e : events) {
    if (e.name == "phase") (e.phase == 'B' ? begin : end) = e.ts;
    if (e.name == "net.send") sends.push_back(e.ts);
    if (e.name == "net.recv") recvs.push_back(e.ts);
  }
  EXPECT_EQ(begin, kHop);
  EXPECT_EQ(end, begin + 3 * kHop);  // lane 1: 2 hops + 1 fan-out hop
  ASSERT_EQ(sends.size(), 6u);
  ASSERT_EQ(recvs.size(), 6u);
  for (size_t i = 1; i + 1 < sends.size(); ++i) {
    EXPECT_GE(sends[i], begin) << "send " << i;
    EXPECT_LE(recvs[i], end) << "recv " << i;
  }
  // Lanes start together; each lane's instants use its own clock.
  EXPECT_EQ(sends[1], begin);
  EXPECT_EQ(sends[2], begin);
  // Both fan-out copies leave once lane 1's route has arrived.
  EXPECT_EQ(sends[3], begin + 2 * kHop);
  EXPECT_EQ(sends[4], begin + 2 * kHop);
  // The next charge after the overlap waits for all of it.
  EXPECT_EQ(sends[5], end);
  EXPECT_TRUE(testing::SpansNestPerTrack(events));
}

Status SendThenFail(SimNetwork* network) {
  SimNetwork::Overlap overlap(network, 1);
  overlap.Lane(0);
  network->Charge(1, 2, 0);
  overlap.Lane(1);
  network->Charge(1, 1, 0);
  return Status::Unavailable("lost");  // RAII closes the overlap
}

TEST(OverlapTest, EarlyReturnStillClosesIt) {
  SimNetwork network;
  EXPECT_FALSE(SendThenFail(&network).ok());
  EXPECT_EQ(network.StatsFor(1).micros, 2 * kHop);
  // Later charges are stop-and-wait again: no overlap is left open.
  network.Charge(1, 1, 0);
  EXPECT_EQ(network.StatsFor(1).micros, 3 * kHop);
}

}  // namespace
}  // namespace orchestra::net
