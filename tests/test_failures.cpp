// Failure-injection tests (§2's fail-stop model): MARP under minority and
// majority failures, migration retry / unavailability declaration, recovery,
// and the baselines' failover behaviour.
#include <gtest/gtest.h>

#include <memory>

#include "baseline/available_copy.hpp"
#include "baseline/primary_copy.hpp"
#include "marp/protocol.hpp"
#include "net/latency.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "workload/trace.hpp"

namespace marp {
namespace {

using namespace marp::sim::literals;

struct MarpStack {
  explicit MarpStack(std::size_t n, core::MarpConfig config = {},
                     std::uint64_t seed = 1)
      : simulator(seed),
        network(simulator, net::make_lan_mesh(n, 2_ms),
                std::make_unique<net::ConstantLatency>(2_ms)),
        platform(network),
        protocol(network, platform, config) {
    protocol.set_outcome_handler(
        [this](const replica::Outcome& outcome) { trace.record(outcome); });
  }

  void submit_write(std::uint64_t id, net::NodeId origin, const std::string& value) {
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
  agent::AgentPlatform platform;
  core::MarpProtocol protocol;
  workload::TraceCollector trace;
};

TEST(MarpFailures, MinorityFailureStillCommits) {
  MarpStack stack(5);
  stack.protocol.fail_server(4);
  stack.protocol.fail_server(3);  // 3 of 5 alive: still a majority
  stack.submit_write(1, 0, "survives");
  stack.simulator.run(30_s);
  EXPECT_EQ(stack.trace.successful_writes(), 1u);
  for (net::NodeId node = 0; node < 3; ++node) {
    const auto stored = stack.protocol.server(node).store().read("item");
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(stored->value, "survives");
  }
}

TEST(MarpFailures, AgentDeclaresUnavailableAfterRetries) {
  MarpStack stack(5);
  stack.protocol.fail_server(4);
  stack.submit_write(1, 0, "retrying");
  stack.simulator.run(30_s);
  EXPECT_EQ(stack.trace.successful_writes(), 1u);
  // The agent may or may not have needed node 4 (it stops at a majority of
  // live lists); if it tried, migrations_failed reflects the retries.
  EXPECT_EQ(stack.protocol.stats().mutex_violations, 0u);
}

TEST(MarpFailures, MajorityFailureAbortsTheWrite) {
  MarpStack stack(5);
  for (net::NodeId node = 1; node <= 3; ++node) stack.protocol.fail_server(node);
  // Only 0 and 4 alive: no majority of 5 can ever assemble.
  stack.submit_write(1, 0, "doomed");
  stack.simulator.run(120_s);
  EXPECT_EQ(stack.trace.successful_writes(), 0u);
  EXPECT_EQ(stack.trace.failed_writes(), 1u);  // reported, not silently lost
  EXPECT_GE(stack.protocol.stats().updates_aborted, 1u);
}

TEST(MarpFailures, CrashDuringLoadDoesNotViolateSafety) {
  MarpStack stack(5);
  for (net::NodeId node = 0; node < 5; ++node) {
    stack.submit_write(10 + node, node, std::string("c").append(std::to_string(node)));
  }
  // Kill a server while agents are racing for the lock.
  stack.simulator.schedule(5_ms, [&stack] { stack.protocol.fail_server(2); });
  stack.simulator.run(60_s);
  EXPECT_EQ(stack.protocol.stats().mutex_violations, 0u);
  // Requests that originated at (or whose agent died on) server 2 may be
  // lost — the fail-stop model allows that — but everything else finishes.
  EXPECT_GE(stack.trace.successful_writes() + stack.trace.failed_writes(), 3u);
  // Survivors converge.
  const auto reference = stack.protocol.server(0).store().read("item");
  ASSERT_TRUE(reference.has_value());
  for (net::NodeId node : {0u, 1u, 3u, 4u}) {
    const auto stored = stack.protocol.server(node).store().read("item");
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(stored->value, reference->value) << "node " << node;
  }
}

TEST(MarpFailures, RecoveredServerCatchesUpOnNextCommit) {
  MarpStack stack(5);
  stack.protocol.fail_server(4);
  stack.submit_write(1, 0, "while-down");
  stack.simulator.run(30_s);
  ASSERT_EQ(stack.trace.successful_writes(), 1u);
  EXPECT_FALSE(stack.protocol.server(4).store().read("item").has_value());

  stack.protocol.recover_server(4);
  stack.submit_write(2, 1, "after-recovery");
  stack.simulator.run(60_s);
  EXPECT_EQ(stack.trace.successful_writes(), 2u);
  const auto stored = stack.protocol.server(4).store().read("item");
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(stored->value, "after-recovery");  // COMMIT carries the ops
}

TEST(MarpFailures, DeadAgentsLocksArePurged) {
  MarpStack stack(5);
  // Two competing writers; kill the host of one mid-protocol.
  stack.submit_write(1, 1, "one");
  stack.submit_write(2, 2, "two");
  stack.simulator.schedule(3_ms, [&stack] { stack.protocol.fail_server(1); });
  stack.simulator.run(60_s);
  // The surviving writer must not deadlock behind the dead agent's entries.
  EXPECT_GE(stack.trace.successful_writes(), 1u);
  for (net::NodeId node : {0u, 2u, 3u, 4u}) {
    EXPECT_EQ(stack.protocol.server(node).locking_list().size(), 0u)
        << "stale lock entries at node " << node;
  }
}

// ---------- baselines under failure ----------

TEST(AvailableCopyFailures, WriteCompletesOnceFailureIsKnown) {
  sim::Simulator simulator(1);
  net::Network network(simulator, net::make_lan_mesh(5, 2_ms),
                       std::make_unique<net::ConstantLatency>(2_ms));
  baseline::AvailableCopyProtocol protocol(network);
  workload::TraceCollector trace;
  protocol.set_outcome_handler(
      [&trace](const replica::Outcome& outcome) { trace.record(outcome); });

  protocol.fail_server(3);
  simulator.run();  // let the failure notice propagate

  replica::Request request;
  request.id = 1;
  request.kind = replica::RequestKind::Write;
  request.key = "item";
  request.value = "without-3";
  request.origin = 0;
  request.submitted = simulator.now();
  protocol.submit(request);
  simulator.run(10_s);
  EXPECT_EQ(trace.successful_writes(), 1u);
  for (net::NodeId node : {0u, 1u, 2u, 4u}) {
    const auto stored = protocol.server(node).store().read("item");
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(stored->value, "without-3");
  }
}

TEST(AvailableCopyFailures, RecoveringReplicaPullsState) {
  sim::Simulator simulator(1);
  net::Network network(simulator, net::make_lan_mesh(5, 2_ms),
                       std::make_unique<net::ConstantLatency>(2_ms));
  baseline::AvailableCopyProtocol protocol(network);
  workload::TraceCollector trace;
  protocol.set_outcome_handler(
      [&trace](const replica::Outcome& outcome) { trace.record(outcome); });

  protocol.fail_server(2);
  simulator.run();
  replica::Request request;
  request.id = 1;
  request.kind = replica::RequestKind::Write;
  request.key = "item";
  request.value = "missed";
  request.origin = 0;
  request.submitted = simulator.now();
  protocol.submit(request);
  simulator.run(10_s);
  EXPECT_FALSE(protocol.server(2).store().read("item").has_value());

  protocol.recover_server(2);
  simulator.run(30_s);  // deadlines are absolute; the first run ended at 10s
  const auto stored = protocol.server(2).store().read("item");
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(stored->value, "missed");  // state transfer on recovery
}

TEST(PrimaryCopyFailures, BackupTakesOverAfterPrimaryDies) {
  sim::Simulator simulator(1);
  net::Network network(simulator, net::make_lan_mesh(5, 2_ms),
                       std::make_unique<net::ConstantLatency>(2_ms));
  baseline::PrimaryCopyProtocol protocol(network);
  workload::TraceCollector trace;
  protocol.set_outcome_handler(
      [&trace](const replica::Outcome& outcome) { trace.record(outcome); });

  protocol.fail_server(0);
  simulator.run();  // view change: node 1 becomes primary
  EXPECT_TRUE(protocol.server(1).is_primary());
  EXPECT_FALSE(protocol.server(2).is_primary());

  replica::Request request;
  request.id = 1;
  request.kind = replica::RequestKind::Write;
  request.key = "item";
  request.value = "new-view";
  request.origin = 3;
  request.submitted = simulator.now();
  protocol.submit(request);
  simulator.run(10_s);
  EXPECT_EQ(trace.successful_writes(), 1u);
  for (net::NodeId node : {1u, 2u, 3u, 4u}) {
    const auto stored = protocol.server(node).store().read("item");
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(stored->value, "new-view");
  }
}

}  // namespace
}  // namespace marp
