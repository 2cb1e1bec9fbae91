// Unit tests for the MP-MCV baseline's lock queue and Maekawa-style
// preemption machinery, plus UpdateAgent state fuzzing — the pieces whose
// bugs only show as rare end-to-end stalls.
#include <gtest/gtest.h>

#include <memory>

#include "baseline/mcv.hpp"
#include "marp/update_agent.hpp"
#include "net/latency.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "workload/trace.hpp"

namespace marp::baseline {
namespace {

using namespace marp::sim::literals;

struct Stack {
  explicit Stack(std::size_t n, std::uint64_t seed = 1)
      : simulator(seed),
        network(simulator, net::make_lan_mesh(n, 2_ms),
                std::make_unique<net::ConstantLatency>(2_ms)),
        protocol(network) {
    protocol.set_outcome_handler(
        [this](const replica::Outcome& outcome) { trace.record(outcome); });
  }

  void write(std::uint64_t id, net::NodeId origin, const std::string& value) {
    replica::Request request;
    request.id = id;
    request.kind = replica::RequestKind::Write;
    request.key = "item";
    request.value = value;
    request.origin = origin;
    request.submitted = simulator.now();
    protocol.submit(request);
  }

  sim::Simulator simulator;
  net::Network network;
  McvProtocol protocol;
  workload::TraceCollector trace;
};

TEST(McvPreemption, SelfGrantDeadlockIsBrokenByPreempts) {
  // All five coordinators write at t = 0: each replica grants itself first
  // (the classic all-grant-self deadlock). Preemption must hand the grants
  // to the globally smallest (timestamp, coordinator) request, and every
  // write must commit without waiting for retry timeouts.
  Stack stack(5);
  for (net::NodeId node = 0; node < 5; ++node) {
    stack.write(10 + node, node, std::string("m").append(std::to_string(node)));
  }
  // 5 sequential lock+update+commit sessions at 2 ms hops: well under the
  // 100 ms retry timer if preemption works, far over it if not.
  stack.simulator.run(80_ms);
  EXPECT_EQ(stack.trace.successful_writes(), 5u);
}

TEST(McvPreemption, LowerTimestampWinsTheContention) {
  // Node 3 submits first (earlier Lamport timestamp at every replica wins
  // ties by coordinator id); then node 1 submits. Node 3's write must
  // commit first — the queue is priority-ordered, not FIFO-by-arrival.
  Stack stack(5);
  stack.write(1, 3, "first-submitted");
  stack.simulator.schedule(sim::SimTime::micros(100), [&stack] {
    stack.write(2, 1, "second-submitted");
  });
  stack.simulator.run();
  ASSERT_EQ(stack.trace.successful_writes(), 2u);
  EXPECT_EQ(stack.trace.outcomes()[0].request_id, 1u);
  EXPECT_EQ(stack.trace.outcomes()[1].request_id, 2u);
  // The later write overwrote the value everywhere.
  for (net::NodeId node = 0; node < 5; ++node) {
    EXPECT_EQ(stack.protocol.server(node).store().read("item")->value,
              "second-submitted");
  }
}

TEST(McvPreemption, UpdatingPhaseIsNotPreempted) {
  // A coordinator that already holds a majority must not relinquish: start
  // one write, let it reach the update phase, then race a second with a
  // smaller coordinator id. Both must commit (no lost updates), and the
  // stores converge.
  Stack stack(5);
  stack.write(1, 4, "by-four");
  stack.simulator.schedule(5_ms, [&stack] { stack.write(2, 0, "by-zero"); });
  stack.simulator.run();
  EXPECT_EQ(stack.trace.successful_writes(), 2u);
  const auto reference = stack.protocol.server(0).store().read("item");
  ASSERT_TRUE(reference.has_value());
  for (net::NodeId node = 1; node < 5; ++node) {
    EXPECT_EQ(stack.protocol.server(node).store().read("item")->value,
              reference->value);
  }
}

TEST(McvPreemption, HeavyInterleavingCommitsEverythingQuickly) {
  Stack stack(5, 99);
  std::uint64_t id = 1;
  for (int wave = 0; wave < 6; ++wave) {
    stack.simulator.schedule(sim::SimTime::millis(wave * 7), [&stack, &id, wave] {
      for (net::NodeId node = 0; node < 5; ++node) {
        stack.write(id++, node,
                    std::string("w").append(std::to_string(wave)).append("n").append(std::to_string(node)));
      }
    });
  }
  stack.simulator.run(2_s);
  EXPECT_EQ(stack.trace.successful_writes(), 30u);
  EXPECT_EQ(stack.trace.failed_writes(), 0u);
}

// ---------- UpdateAgent serialization fuzz ----------

class UpdateAgentFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UpdateAgentFuzz, RandomBatchesRoundTripExactly) {
  sim::Rng rng(GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<core::UpdateAgent::PendingWrite> writes;
    const std::size_t count = 1 + rng.bounded(6);
    for (std::size_t i = 0; i < count; ++i) {
      std::string key = std::string("k").append(std::to_string(rng.bounded(4)));
      std::string value;
      const std::size_t len = rng.bounded(200);
      for (std::size_t c = 0; c < len; ++c) {
        value.push_back(static_cast<char>(rng.bounded(256)));
      }
      writes.push_back({rng(), std::move(key), std::move(value)});
    }
    core::UpdateAgent agent(static_cast<net::NodeId>(rng.bounded(8)),
                            std::move(writes));
    serial::Writer w1;
    agent.serialize(w1);
    core::UpdateAgent copy;
    serial::Reader r(w1.bytes());
    copy.deserialize(r);
    ASSERT_TRUE(r.at_end());
    serial::Writer w2;
    copy.serialize(w2);
    ASSERT_EQ(w1.bytes(), w2.bytes());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpdateAgentFuzz, ::testing::Values(5, 55, 555));

}  // namespace
}  // namespace marp::baseline
