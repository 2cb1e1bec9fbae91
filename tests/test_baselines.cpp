// End-to-end tests for the message-passing baselines: MP-MCV, weighted
// voting, available-copy, and primary-copy. Each must provide the same
// observable behaviour (writes converge, reads return committed data) so
// that the comparison benches measure mechanism cost, not semantics.
#include <gtest/gtest.h>

#include <memory>

#include "baseline/available_copy.hpp"
#include "baseline/mcv.hpp"
#include "baseline/primary_copy.hpp"
#include "baseline/weighted_voting.hpp"
#include "net/latency.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "workload/trace.hpp"

namespace marp::baseline {
namespace {

using namespace marp::sim::literals;

template <typename Protocol>
struct Stack {
  explicit Stack(std::size_t n, std::uint64_t seed = 1)
      : simulator(seed),
        network(simulator, net::make_lan_mesh(n, 2_ms),
                std::make_unique<net::ConstantLatency>(2_ms)),
        protocol(network) {
    protocol.set_outcome_handler(
        [this](const replica::Outcome& outcome) { trace.record(outcome); });
  }

  replica::Request write(std::uint64_t id, net::NodeId origin,
                         const std::string& value, const std::string& key = "item") {
    replica::Request request;
    request.id = id;
    request.kind = replica::RequestKind::Write;
    request.key = key;
    request.value = value;
    request.origin = origin;
    request.submitted = simulator.now();
    return request;
  }

  replica::Request read(std::uint64_t id, net::NodeId origin,
                        const std::string& key = "item") {
    replica::Request request;
    request.id = id;
    request.kind = replica::RequestKind::Read;
    request.key = key;
    request.origin = origin;
    request.submitted = simulator.now();
    return request;
  }

  void expect_converged(const std::string& key, const std::string& value) {
    for (net::NodeId node = 0; node < network.size(); ++node) {
      const auto stored = protocol.server(node).store().read(key);
      ASSERT_TRUE(stored.has_value()) << "node " << node << " missing " << key;
      EXPECT_EQ(stored->value, value) << "node " << node;
    }
  }

  sim::Simulator simulator;
  net::Network network;
  Protocol protocol;
  workload::TraceCollector trace;
};

// ---------- MP-MCV ----------

TEST(Mcv, SingleWriteConvergesEverywhere) {
  Stack<McvProtocol> stack(5);
  stack.protocol.submit(stack.write(1, 0, "hello"));
  stack.simulator.run();
  EXPECT_EQ(stack.trace.successful_writes(), 1u);
  stack.expect_converged("item", "hello");
  EXPECT_EQ(stack.protocol.writes_committed(), 1u);
}

TEST(Mcv, ConcurrentWritersAllCommitAndConverge) {
  Stack<McvProtocol> stack(5);
  for (net::NodeId node = 0; node < 5; ++node) {
    stack.protocol.submit(stack.write(10 + node, node, std::string("m").append(std::to_string(node))));
  }
  stack.simulator.run();
  EXPECT_EQ(stack.trace.successful_writes(), 5u);
  // All replicas identical afterwards (whichever version won the ordering).
  const auto reference = stack.protocol.server(0).store().read("item");
  ASSERT_TRUE(reference.has_value());
  stack.expect_converged("item", reference->value);
}

TEST(Mcv, LockLatencyRequiresMessageRounds) {
  Stack<McvProtocol> stack(5);
  stack.protocol.submit(stack.write(1, 0, "x"));
  stack.simulator.run();
  ASSERT_EQ(stack.trace.outcomes().size(), 1u);
  const auto& outcome = stack.trace.outcomes()[0];
  // One REQ→GRANT round trip at constant 2ms one-way ⇒ ≥ 4ms to the lock.
  EXPECT_GE(outcome.lock_latency().as_millis(), 4.0);
  // And another UPDATE→ACK round before completion.
  EXPECT_GE(outcome.update_latency().as_millis(), 8.0);
}

TEST(Mcv, ReadsAreLocal) {
  Stack<McvProtocol> stack(5);
  stack.protocol.submit(stack.write(1, 0, "val"));
  stack.simulator.run();
  const auto before = stack.network.stats().messages_sent;
  stack.protocol.submit(stack.read(2, 2));
  stack.simulator.run();
  EXPECT_EQ(stack.network.stats().messages_sent, before);  // zero messages
  EXPECT_EQ(stack.trace.outcomes().back().value, "val");
}

// ---------- Weighted voting ----------

TEST(WeightedVoting, DefaultQuorumsIntersect) {
  Stack<WeightedVotingProtocol> stack(5);
  EXPECT_EQ(stack.protocol.total_votes(), 5u);
  EXPECT_EQ(stack.protocol.write_quorum(), 3u);
  EXPECT_EQ(stack.protocol.read_quorum(), 3u);
  EXPECT_GT(stack.protocol.read_quorum() + stack.protocol.write_quorum(),
            stack.protocol.total_votes());
}

TEST(WeightedVoting, WriteThenQuorumReadSeesFreshValue) {
  Stack<WeightedVotingProtocol> stack(5);
  stack.protocol.submit(stack.write(1, 0, "fresh"));
  stack.simulator.run();
  EXPECT_EQ(stack.trace.successful_writes(), 1u);
  // Read from a different origin: the read quorum must intersect the write
  // quorum, so the freshest value comes back even if the local copy lagged.
  stack.protocol.submit(stack.read(2, 4));
  stack.simulator.run();
  EXPECT_EQ(stack.trace.outcomes().back().value, "fresh");
}

TEST(WeightedVoting, ReadsCostMessagesUnlikeMarp) {
  Stack<WeightedVotingProtocol> stack(5);
  stack.protocol.submit(stack.write(1, 0, "v"));
  stack.simulator.run();
  const auto before = stack.network.stats().messages_sent;
  stack.protocol.submit(stack.read(2, 1));
  stack.simulator.run();
  EXPECT_GT(stack.network.stats().messages_sent, before);
}

TEST(WeightedVoting, ConcurrentWritesConverge) {
  Stack<WeightedVotingProtocol> stack(5);
  for (net::NodeId node = 0; node < 5; ++node) {
    stack.protocol.submit(stack.write(10 + node, node, std::string("w").append(std::to_string(node))));
  }
  stack.simulator.run();
  EXPECT_EQ(stack.trace.successful_writes(), 5u);
  // Quorum intersection forces a single winner version at every quorum
  // member; read it back through a quorum read.
  stack.protocol.submit(stack.read(99, 0));
  stack.simulator.run();
  EXPECT_FALSE(stack.trace.outcomes().back().value.empty());
}

TEST(WeightedVoting, CustomVotesChangeQuorums) {
  sim::Simulator simulator(1);
  net::Network network(simulator, net::make_lan_mesh(3, 1_ms),
                       std::make_unique<net::ConstantLatency>(1_ms));
  WeightedVotingConfig config;
  config.votes = {3, 1, 1};  // node 0 dominates
  WeightedVotingProtocol protocol(network, config);
  EXPECT_EQ(protocol.total_votes(), 5u);
  EXPECT_EQ(protocol.write_quorum(), 3u);
  // Node 0 alone satisfies the write quorum.
  EXPECT_GE(protocol.votes_of(0), protocol.write_quorum());
}

TEST(WeightedVoting, InvalidQuorumsRejected) {
  sim::Simulator simulator(1);
  net::Network network(simulator, net::make_lan_mesh(3, 1_ms),
                       std::make_unique<net::ConstantLatency>(1_ms));
  WeightedVotingConfig config;
  config.read_quorum = 1;
  config.write_quorum = 1;  // r + w = 2 ≤ 3 votes: must throw
  EXPECT_THROW(WeightedVotingProtocol(network, config), ContractViolation);
}

// ---------- Available copy ----------

TEST(AvailableCopy, WritesReachAllAvailableReplicas) {
  Stack<AvailableCopyProtocol> stack(5);
  stack.protocol.submit(stack.write(1, 2, "everywhere"));
  stack.simulator.run();
  EXPECT_EQ(stack.trace.successful_writes(), 1u);
  stack.expect_converged("item", "everywhere");
}

TEST(AvailableCopy, LocalReadSeesLastWrite) {
  Stack<AvailableCopyProtocol> stack(5);
  stack.protocol.submit(stack.write(1, 0, "ac"));
  stack.simulator.run();
  stack.protocol.submit(stack.read(2, 4));
  stack.simulator.run();
  EXPECT_EQ(stack.trace.outcomes().back().value, "ac");
}

TEST(AvailableCopy, ConcurrentWritesConvergeByVersion) {
  Stack<AvailableCopyProtocol> stack(5);
  for (net::NodeId node = 0; node < 5; ++node) {
    stack.protocol.submit(stack.write(10 + node, node, "a" + std::to_string(node)));
  }
  stack.simulator.run();
  EXPECT_EQ(stack.trace.successful_writes(), 5u);
  const auto reference = stack.protocol.server(0).store().read("item");
  ASSERT_TRUE(reference.has_value());
  stack.expect_converged("item", reference->value);
}

// ---------- Primary copy ----------

TEST(PrimaryCopy, ForwardsToPrimaryAndConverges) {
  Stack<PrimaryCopyProtocol> stack(5);
  EXPECT_TRUE(stack.protocol.server(0).is_primary());
  EXPECT_FALSE(stack.protocol.server(3).is_primary());
  stack.protocol.submit(stack.write(1, 3, "routed"));
  stack.simulator.run();
  EXPECT_EQ(stack.trace.successful_writes(), 1u);
  stack.expect_converged("item", "routed");
}

TEST(PrimaryCopy, PrimaryOrdersConcurrentWrites) {
  Stack<PrimaryCopyProtocol> stack(5);
  for (net::NodeId node = 0; node < 5; ++node) {
    stack.protocol.submit(stack.write(10 + node, node, "p" + std::to_string(node)));
  }
  stack.simulator.run();
  EXPECT_EQ(stack.trace.successful_writes(), 5u);
  const auto reference = stack.protocol.server(0).store().read("item");
  ASSERT_TRUE(reference.has_value());
  stack.expect_converged("item", reference->value);
}

TEST(PrimaryCopy, WriteAtPrimaryIsFasterThanForwarded) {
  Stack<PrimaryCopyProtocol> stack(5);
  stack.protocol.submit(stack.write(1, 0, "local"));   // at the primary
  stack.simulator.run();
  const double at_primary = stack.trace.outcomes()[0].total_latency().as_millis();
  stack.protocol.submit(stack.write(2, 4, "remote"));  // forwarded
  stack.simulator.run();
  const double forwarded = stack.trace.outcomes()[1].total_latency().as_millis();
  EXPECT_LT(at_primary, forwarded);
}

}  // namespace
}  // namespace marp::baseline
