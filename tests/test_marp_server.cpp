// Unit tests for MarpServer's local agent interface (Algorithm 2's
// server-side data structures): visit semantics, gossip exchange, cheap
// refresh, batching timers, and runs over star/ring topologies.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <set>

#include "marp/protocol.hpp"
#include "marp/update_agent.hpp"
#include "net/latency.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "workload/trace.hpp"

namespace marp::core {
namespace {

using namespace marp::sim::literals;

struct Stack {
  explicit Stack(std::size_t n, MarpConfig config = {}, std::uint64_t seed = 1)
      : simulator(seed),
        network(simulator, net::make_lan_mesh(n, 2_ms),
                std::make_unique<net::ConstantLatency>(2_ms)),
        platform(network),
        protocol(network, platform, std::move(config)) {}

  sim::Simulator simulator;
  net::Network network;
  agent::AgentPlatform platform;
  MarpProtocol protocol;
};

agent::AgentId aid(std::uint32_t n) { return agent::AgentId{n, n * 100, 0}; }

TEST(MarpServerVisit, AppendsAndSnapshotsInArrivalOrder) {
  Stack stack(3);
  MarpServer& server = stack.protocol.server(0);
  const auto first = server.visit(aid(1), {"item"}, {});
  const auto second = server.visit(aid(2), {"item"}, {});
  EXPECT_EQ(first.locking_lists.at(0).agents,
            (std::vector<agent::AgentId>{aid(1)}));
  EXPECT_EQ(second.locking_lists.at(0).agents,
            (std::vector<agent::AgentId>{aid(1), aid(2)}));
  // Re-visit keeps the queue position.
  const auto again = server.visit(aid(1), {"item"}, {});
  EXPECT_EQ(again.locking_lists.at(0).agents,
            (std::vector<agent::AgentId>{aid(1), aid(2)}));
}

TEST(MarpServerVisit, ReturnsRoutingCostsAndData) {
  Stack stack(4);
  MarpServer& server = stack.protocol.server(1);
  server.store().force("item", "local-copy", {5, 1});
  const auto result = server.visit(aid(1), {"item", "absent"}, {});
  ASSERT_EQ(result.routing_costs.size(), 4u);
  EXPECT_EQ(result.routing_costs[1], 0);
  EXPECT_EQ(result.routing_costs[0], 2000);  // 2 ms mesh
  ASSERT_TRUE(result.data.contains("item"));
  EXPECT_EQ(result.data.at("item").value, "local-copy");
  EXPECT_FALSE(result.data.contains("absent"));  // never written
}

TEST(MarpServerVisit, GossipIsStoredAndReturnedFresher) {
  Stack stack(3);
  MarpServer& server = stack.protocol.server(0);

  // Visitor 1 leaves a group-0 snapshot of server 2 in the cache.
  GroupLockTable carried;
  carried[0][2] = LockSnapshot{{aid(9)}, 50};
  server.visit(aid(1), {}, carried);

  // Visitor 2 receives it back...
  const auto result = server.visit(aid(2), {}, {});
  ASSERT_TRUE(result.gossip.contains(0));
  ASSERT_TRUE(result.gossip.at(0).contains(2));
  EXPECT_EQ(result.gossip.at(0).at(2).agents.front(), aid(9));
  // ...plus this server's own fresh snapshot left by visitor 1's visit.
  ASSERT_TRUE(result.gossip.at(0).contains(0));

  // A staler carried snapshot does not overwrite the cache.
  GroupLockTable stale;
  stale[0][2] = LockSnapshot{{aid(8)}, 10};
  const auto after_stale = server.visit(aid(3), {}, stale);
  EXPECT_EQ(after_stale.gossip.at(0).at(2).agents.front(), aid(9));
  // A fresher one does.
  GroupLockTable fresher;
  fresher[0][2] = LockSnapshot{{aid(7)}, 90};
  const auto after_fresh = server.visit(aid(4), {}, fresher);
  EXPECT_EQ(after_fresh.gossip.at(0).at(2).agents.front(), aid(7));
}

TEST(MarpServerVisit, GossipDisabledReturnsNothing) {
  MarpConfig config;
  config.gossip = false;
  Stack stack(3, config);
  MarpServer& server = stack.protocol.server(0);
  GroupLockTable carried;
  carried[0][2] = LockSnapshot{{aid(9)}, 50};
  const auto result = server.visit(aid(1), {}, carried);
  EXPECT_TRUE(result.gossip.empty());
  const auto second = server.visit(aid(2), {}, {});
  EXPECT_TRUE(second.gossip.empty());
}

TEST(MarpServerVisit, RefreshIsAppendingButLight) {
  Stack stack(3);
  MarpServer& server = stack.protocol.server(0);
  const auto refresh = server.refresh(aid(5));
  EXPECT_EQ(refresh.locking_lists.at(0).agents,
            (std::vector<agent::AgentId>{aid(5)}));
  EXPECT_TRUE(refresh.updated_list.empty());
  // Refresh did not pollute the gossip cache.
  const auto visit = server.visit(aid(6), {}, {});
  EXPECT_TRUE(visit.gossip.empty());
}

TEST(MarpServerVisit, VisitOnFailedServerIsAContractViolation) {
  Stack stack(3);
  stack.protocol.server(1).fail();
  EXPECT_THROW(stack.protocol.server(1).visit(aid(1), {}, {}), ContractViolation);
}

TEST(MarpServerBatching, PendingCountAndTimerFlush) {
  MarpConfig config;
  config.batch_size = 3;
  config.batch_period = 10_ms;
  Stack stack(3, config);
  workload::TraceCollector trace;
  stack.protocol.set_outcome_handler(
      [&trace](const replica::Outcome& outcome) { trace.record(outcome); });

  replica::Request request;
  request.id = 1;
  request.kind = replica::RequestKind::Write;
  request.key = "item";
  request.value = "v";
  request.origin = 0;
  request.submitted = stack.simulator.now();
  stack.protocol.submit(request);
  EXPECT_EQ(stack.protocol.server(0).pending_requests(), 1u);
  EXPECT_EQ(stack.platform.live_agents(), 0u);  // batch not full: no agent yet

  stack.simulator.run(5_ms);
  EXPECT_EQ(stack.protocol.server(0).pending_requests(), 1u);
  stack.simulator.run(60_s);  // period fires at 10 ms, then the write runs
  EXPECT_EQ(stack.protocol.server(0).pending_requests(), 0u);
  EXPECT_EQ(trace.successful_writes(), 1u);
}

// ---------- star / ring topology end-to-end ----------

template <typename MakeTopology>
void run_on_topology(MakeTopology&& make) {
  sim::Simulator simulator(17);
  net::Topology topology = make();
  net::Network network(simulator, topology,
                       std::make_unique<net::LanLatency>(topology.delays, 200.0,
                                                         12.5));
  agent::AgentPlatform platform(network);
  MarpProtocol protocol(network, platform);
  workload::TraceCollector trace;
  protocol.set_outcome_handler(
      [&trace](const replica::Outcome& outcome) { trace.record(outcome); });
  for (net::NodeId node = 0; node < topology.size(); ++node) {
    replica::Request request;
    request.id = 1 + node;
    request.kind = replica::RequestKind::Write;
    request.key = "item";
    request.value = "t" + std::to_string(node);
    request.origin = node;
    request.submitted = simulator.now();
    protocol.submit(request);
  }
  simulator.run(60_s);
  EXPECT_EQ(trace.successful_writes(), topology.size());
  EXPECT_EQ(protocol.stats().mutex_violations, 0u);
  const auto reference = protocol.server(0).store().read("item");
  ASSERT_TRUE(reference.has_value());
  for (net::NodeId node = 1; node < topology.size(); ++node) {
    const auto value = protocol.server(node).store().read("item");
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(value->value, reference->value);
  }
}

// ---- Updated List: FIFO eviction with a sorted index ----

TEST(UpdatedListIndex, RandomAddsMatchABoundedFifoReference) {
  sim::Rng rng(256);
  for (int trial = 0; trial < 20; ++trial) {
    constexpr std::size_t kCapacity = 256;
    replica::UpdatedList ul(kCapacity);
    std::deque<agent::AgentId> ref;
    for (int op = 0; op < 1500; ++op) {
      // Ids drawn from a space a few times the capacity: re-adds of live
      // entries, re-adds of evicted ones and fresh ids all happen.
      const agent::AgentId id{static_cast<net::NodeId>(rng.bounded(8)),
                              static_cast<std::int64_t>(rng.bounded(100)), 0};
      ul.add(id);
      if (std::find(ref.begin(), ref.end(), id) == ref.end()) {
        ref.push_back(id);
        if (ref.size() > kCapacity) ref.pop_front();
      }
      ASSERT_EQ(ul.size(), ref.size());
      const agent::AgentId probe{static_cast<net::NodeId>(rng.bounded(8)),
                                 static_cast<std::int64_t>(rng.bounded(100)), 0};
      ASSERT_EQ(ul.contains(probe),
                std::find(ref.begin(), ref.end(), probe) != ref.end());
    }
    EXPECT_EQ(ul.snapshot(), std::vector<agent::AgentId>(ref.begin(), ref.end()));
    const std::set<agent::AgentId> ascending(ref.begin(), ref.end());
    const auto view = ul.sorted();
    ASSERT_EQ(view.size(), ascending.size());
    std::size_t k = 0;
    for (const agent::AgentId& id : ascending) EXPECT_EQ(view[k++], id);
  }
}

TEST(UpdatedListIndex, EvictedEntriesAreNoLongerContained) {
  replica::UpdatedList ul(256);
  for (std::uint32_t i = 0; i < 300; ++i) ul.add(aid(i));
  EXPECT_EQ(ul.size(), 256u);
  for (std::uint32_t i = 0; i < 44; ++i) EXPECT_FALSE(ul.contains(aid(i))) << i;
  for (std::uint32_t i = 44; i < 300; ++i) EXPECT_TRUE(ul.contains(aid(i))) << i;
  // An evicted agent can be recorded again, as the newest entry.
  ul.add(aid(0));
  EXPECT_TRUE(ul.contains(aid(0)));
  EXPECT_FALSE(ul.contains(aid(44)));
  EXPECT_EQ(ul.snapshot().back(), aid(0));
}

// ---- Hostile agent frames: out-of-order or repeated keys are rejected ----

/// An UpdateAgent frame laid out field by field as UpdateAgent::serialize
/// writes it, with the Locking Tables and UAL supplied by `lt_and_ual`.
serial::Bytes update_agent_frame(const std::function<void(serial::Writer&)>& lt_and_ual) {
  serial::Writer state;
  state.varint(0);  // origin
  state.varint(1);  // one pending write
  state.varint(7);
  state.str("k");
  state.str("v");
  state.u8(0);       // phase: Traveling
  state.svarint(0);  // dispatched
  state.svarint(0);  // lock obtained
  state.varint(0);   // USL
  state.varint(0);   // visited
  state.varint(0);   // unavailable
  state.varint(1);   // lock groups {0}
  state.varint(0);
  lt_and_ual(state);
  state.varint(0);  // freshest copies
  state.varint(0);  // routing costs
  state.varint(0);  // current target
  state.varint(0);  // migration retries
  state.varint(0);  // ops
  state.varint(0);  // acks
  state.varint(0);  // ack rounds
  state.boolean(false);  // committed
  state.varint(0);       // commit acks
  state.varint(0);       // commit rounds
  state.boolean(false);  // report acked
  state.boolean(false);  // defer
  agent::AgentId{}.serialize(state);
  state.svarint(0);  // defer since
  state.varint(0);   // attempt seq
  state.svarint(0);  // stall since
  state.varint(0);   // stall fingerprint

  serial::Writer frame;
  frame.str(kUpdateAgentType);
  aid(42).serialize(frame);
  frame.raw(state.bytes());
  return frame.take();
}

/// Group-table body: one group 0 whose servers are `nodes` (in the given
/// order), followed by a UAL of `ual` (in the given order).
serial::Bytes frame_with(const std::vector<net::NodeId>& nodes,
                         const std::vector<agent::AgentId>& ual,
                         const std::vector<shard::GroupId>& groups = {0}) {
  return update_agent_frame([&](serial::Writer& w) {
    w.varint(groups.size());
    for (const shard::GroupId g : groups) {
      w.varint(g);
      w.varint(nodes.size());
      for (const net::NodeId node : nodes) {
        w.varint(node);
        LockSnapshot{{aid(1)}, 10}.serialize(w);
      }
    }
    w.varint(ual.size());
    for (const agent::AgentId& id : ual) id.serialize(w);
  });
}

TEST(HostileAgentFrame, WellFormedHandBuiltFrameDecodes) {
  Stack stack(3);
  const auto agent = stack.platform.decode_frame(frame_with({0, 2}, {aid(1), aid(2)}, {0, 3}));
  const auto& update = dynamic_cast<const UpdateAgent&>(*agent);
  EXPECT_EQ(update.id(), aid(42));
  EXPECT_EQ(update.updated_agents(), (DoneSet{aid(1), aid(2)}));
  ASSERT_EQ(update.lock_tables().size(), 2u);
  EXPECT_EQ(update.lock_tables().at(3).size(), 2u);
  // And it re-encodes to the very same bytes.
  const serial::Bytes bytes = frame_with({0, 2}, {aid(1), aid(2)}, {0, 3});
  EXPECT_EQ(stack.platform.encode_frame(*agent), bytes);
}

TEST(HostileAgentFrame, UnorderedOrRepeatedKeysAreTypedRejections) {
  Stack stack(3);
  const std::vector<serial::Bytes> hostile = {
      frame_with({0, 1}, {aid(2), aid(1)}),         // UAL descending
      frame_with({0, 1}, {aid(1), aid(1)}),         // UAL repeats an id
      frame_with({2, 1}, {aid(1)}),                 // servers descending
      frame_with({1, 1}, {aid(1)}),                 // server repeated
      frame_with({0, 1}, {aid(1)}, {3, 0}),         // groups descending
      frame_with({0, 1}, {aid(1)}, {0, 0}),         // group repeated
  };
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    EXPECT_THROW(stack.platform.decode_frame(hostile[i]), serial::MalformedError)
        << "case " << i;
  }
}

TEST(MarpTopologies, StarConverges) {
  run_on_topology([] { return net::make_star(5, 3_ms); });
}

TEST(MarpTopologies, RingConverges) {
  run_on_topology([] { return net::make_ring(6, 2_ms); });
}

TEST(MarpTopologies, RandomAsymmetricConverges) {
  run_on_topology([] {
    sim::Rng rng(23);
    return net::make_random(5, 1_ms, 20_ms, rng);
  });
}

}  // namespace
}  // namespace marp::core
