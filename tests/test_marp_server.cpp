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
  ASSERT_NE(result.gossip, nullptr);
  ASSERT_TRUE(result.gossip->contains(0));
  ASSERT_TRUE(result.gossip->at(0).contains(2));
  EXPECT_EQ(result.gossip->at(0).at(2).agents.front(), aid(9));
  // ...plus this server's own fresh snapshot, as of this visit.
  ASSERT_TRUE(result.gossip->at(0).contains(0));
  EXPECT_EQ(result.gossip->at(0).at(0).agents, result.locking_lists.at(0).agents);

  // A staler carried snapshot does not overwrite the cache.
  GroupLockTable stale;
  stale[0][2] = LockSnapshot{{aid(8)}, 10};
  const auto after_stale = server.visit(aid(3), {}, stale);
  EXPECT_EQ(after_stale.gossip->at(0).at(2).agents.front(), aid(9));
  // A fresher one does.
  GroupLockTable fresher;
  fresher[0][2] = LockSnapshot{{aid(7)}, 90};
  const auto after_fresh = server.visit(aid(4), {}, fresher);
  EXPECT_EQ(after_fresh.gossip->at(0).at(2).agents.front(), aid(7));
}

TEST(MarpServerVisit, GossipDisabledReturnsNothing) {
  MarpConfig config;
  config.gossip = false;
  Stack stack(3, config);
  MarpServer& server = stack.protocol.server(0);
  GroupLockTable carried;
  carried[0][2] = LockSnapshot{{aid(9)}, 50};
  const auto result = server.visit(aid(1), {}, carried);
  EXPECT_EQ(result.gossip, nullptr);
  const auto second = server.visit(aid(2), {}, {});
  EXPECT_EQ(second.gossip, nullptr);
}

TEST(MarpServerVisit, RefreshIsAppendingButLight) {
  MarpConfig config;
  config.num_lock_groups = 2;
  Stack stack(3, config);
  MarpServer& server = stack.protocol.server(0);
  const auto refresh = server.refresh(aid(5));
  EXPECT_EQ(refresh.locking_lists.at(0).agents,
            (std::vector<agent::AgentId>{aid(5)}));
  EXPECT_TRUE(refresh.updated_list.empty());
  const auto other_group = server.refresh(aid(5), {1});
  EXPECT_EQ(other_group.locking_lists.at(1).agents,
            (std::vector<agent::AgentId>{aid(5)}));
  // Refresh did not pollute the gossip cache: after a group-0 visit it
  // holds only the snapshot that visit left, and nothing of group 1.
  const auto visit = server.visit(aid(6), {}, {});
  ASSERT_NE(visit.gossip, nullptr);
  ASSERT_EQ(visit.gossip->size(), 1u);
  ASSERT_EQ(visit.gossip->at(0).size(), 1u);
  EXPECT_EQ(visit.gossip->at(0).at(0).agents, visit.locking_lists.at(0).agents);
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
serial::Bytes update_agent_frame(const std::function<void(serial::Writer&)>& lt_and_ual,
                                 std::uint64_t usl_count = 0) {
  serial::Writer state;
  state.varint(0);  // origin
  state.varint(1);  // one pending write
  state.varint(7);
  state.str("k");
  state.str("v");
  state.u8(0);       // phase: Traveling
  state.svarint(0);  // dispatched
  state.svarint(0);  // lock obtained
  state.varint(usl_count);  // USL (no entries follow)
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

/// An ascending-id-list field (the agent dictionary or the UAL) coded as
/// the decoder reads it — the count, then per id its created_us delta from
/// the previous id, origin and seq — but in the order given, so a test can
/// also write a list that is out of order.
void write_id_list(serial::Writer& w, const std::vector<agent::AgentId>& ids) {
  w.varint(ids.size());
  std::uint64_t prev = 0;
  for (const agent::AgentId& id : ids) {
    const auto created = static_cast<std::uint64_t>(id.created_us);
    w.varint(created - prev);
    w.varint(id.origin);
    w.varint(id.seq);
    prev = created;
  }
}

/// The Locking-Table and UAL fields of a frame, written field by field:
/// the agent dictionary, then every group in `groups` with every server in
/// `nodes`, each holding the snapshot `indices` (stamp 10), then the UAL.
struct TableFields {
  std::vector<agent::AgentId> dictionary{aid(1)};
  std::vector<shard::GroupId> groups{0};
  std::vector<net::NodeId> nodes{0, 1};
  std::vector<std::uint64_t> indices{0};
  std::vector<agent::AgentId> ual{aid(2)};
};

serial::Bytes frame_with(const TableFields& f) {
  return update_agent_frame([&](serial::Writer& w) {
    write_id_list(w, f.dictionary);
    w.varint(f.groups.size());
    for (const shard::GroupId g : f.groups) {
      w.varint(g);
      w.varint(f.nodes.size());
      for (const net::NodeId node : f.nodes) {
        w.varint(node);
        w.varint(f.indices.size());
        for (const std::uint64_t index : f.indices) w.varint(index);
        w.svarint(10);
      }
    }
    write_id_list(w, f.ual);
  });
}

TableFields well_formed_fields() {
  TableFields f;
  f.dictionary = {aid(1), aid(3)};
  f.groups = {0, 3};
  f.nodes = {0, 2};
  f.indices = {1, 0};
  f.ual = {aid(2), aid(4)};
  return f;
}

TEST(HostileAgentFrame, WellFormedHandBuiltFrameDecodes) {
  Stack stack(3);
  const serial::Bytes bytes = frame_with(well_formed_fields());
  const auto agent = stack.platform.decode_frame(bytes);
  const auto& update = dynamic_cast<const UpdateAgent&>(*agent);
  EXPECT_EQ(update.id(), aid(42));
  EXPECT_EQ(update.updated_agents(), (DoneSet{aid(2), aid(4)}));
  ASSERT_EQ(update.lock_tables().size(), 2u);
  EXPECT_EQ(update.lock_tables().at(3).size(), 2u);
  EXPECT_EQ(update.lock_tables().at(3).at(2).agents,
            (std::vector<agent::AgentId>{aid(3), aid(1)}));
  EXPECT_EQ(update.lock_tables().at(3).at(2).observed_us, 10);
  // And it re-encodes to the very same bytes.
  EXPECT_EQ(stack.platform.encode_frame(*agent), bytes);
}

TEST(HostileAgentFrame, UnorderedOrRepeatedKeysAreTypedRejections) {
  Stack stack(3);
  const auto with = [](const std::function<void(TableFields&)>& edit) {
    TableFields f;
    edit(f);
    return frame_with(f);
  };
  const agent::AgentId early_high{2, 100, 0};
  const agent::AgentId early_low{1, 100, 0};
  const std::vector<serial::Bytes> hostile = {
      with([](TableFields& f) { f.ual = {aid(2), aid(1)}; }),      // UAL descending
      with([](TableFields& f) { f.ual = {aid(1), aid(1)}; }),      // UAL repeats an id
      with([](TableFields& f) { f.nodes = {2, 1}; }),              // servers descending
      with([](TableFields& f) { f.nodes = {1, 1}; }),              // server repeated
      with([](TableFields& f) { f.groups = {3, 0}; }),             // groups descending
      with([](TableFields& f) { f.groups = {0, 0}; }),             // group repeated
      with([](TableFields& f) { f.dictionary = {aid(2), aid(1)}; }),  // dictionary descending
      with([](TableFields& f) { f.dictionary = {aid(1), aid(1)}; }),  // dictionary repeats an id
      // Same created_us (delta 0), origin descending.
      with([&](TableFields& f) { f.dictionary = {early_high, early_low}; }),
      with([](TableFields& f) { f.indices = {1}; }),               // index == dictionary size
      with([](TableFields& f) { f.indices = {0, 1u << 20}; }),     // index far outside
  };
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    EXPECT_THROW(stack.platform.decode_frame(hostile[i]), serial::MalformedError)
        << "case " << i;
  }
}

TEST(HostileAgentFrame, CountsBeyondTheRemainingBytesAreTypedRejections) {
  Stack stack(3);
  const std::vector<serial::Bytes> hostile = {
      update_agent_frame([](serial::Writer& w) { w.varint(1000); }),  // dictionary
      update_agent_frame([](serial::Writer& w) {                      // groups
        write_id_list(w, {aid(1)});
        w.varint(1000);
      }),
      update_agent_frame([](serial::Writer& w) {  // servers of a group
        write_id_list(w, {aid(1)});
        w.varint(1);
        w.varint(0);
        w.varint(1000);
      }),
      update_agent_frame([](serial::Writer& w) {  // agents of a snapshot
        write_id_list(w, {aid(1)});
        w.varint(1);
        w.varint(0);
        w.varint(1);
        w.varint(0);
        w.varint(5000);
      }),
      update_agent_frame([](serial::Writer& w) {  // UAL
        write_id_list(w, {});
        w.varint(0);
        w.varint(1000);
      }),
      update_agent_frame([](serial::Writer& w) {  // no allocation for 2^62 ids
        w.varint(std::uint64_t{1} << 62);
      }),
      // Nor for 2^40 USL servers: the count is checked before reserving.
      update_agent_frame([](serial::Writer& w) { w.varint(0); }, std::uint64_t{1} << 40),
  };
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    EXPECT_THROW(stack.platform.decode_frame(hostile[i]), serial::MalformedError)
        << "case " << i;
  }
}

TEST(HostileAgentFrame, TruncationAtEveryByteIsATypedRejection) {
  Stack stack(3);
  const serial::Bytes frame = frame_with(well_formed_fields());
  // Cut the frame itself...
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    const serial::Bytes prefix(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(stack.platform.decode_frame(prefix), serial::DecodeError) << "cut " << cut;
  }
  // ...and the agent state inside a frame whose length prefix is honest, so
  // the state decoder itself meets the end of its bytes at every field.
  serial::Reader r(frame);
  const std::string type = r.str();
  const agent::AgentId id = agent::AgentId::deserialize(r);
  const serial::Bytes state = r.raw();
  for (std::size_t cut = 0; cut < state.size(); ++cut) {
    serial::Writer w;
    w.str(type);
    id.serialize(w);
    w.raw(serial::Bytes(state.begin(), state.begin() + static_cast<std::ptrdiff_t>(cut)));
    EXPECT_THROW(stack.platform.decode_frame(w.bytes()), serial::DecodeError)
        << "state cut " << cut;
  }
}

TEST(HostileAgentFrame, UnknownTypeAndTrailingStateAreTypedRejections) {
  Stack stack(3);
  const serial::Bytes frame = frame_with(well_formed_fields());
  serial::Reader r(frame);
  (void)r.str();
  const agent::AgentId id = agent::AgentId::deserialize(r);
  serial::Bytes state = r.raw();

  serial::Writer unknown;
  unknown.str("marp.nonesuch");
  id.serialize(unknown);
  unknown.raw(state);
  EXPECT_THROW(stack.platform.decode_frame(unknown.bytes()), serial::MalformedError);

  state.push_back(0);  // the static path reads a trailing epoch varint...
  state.push_back(0);  // ...but nothing after it
  serial::Writer trailing;
  trailing.str(kUpdateAgentType);
  id.serialize(trailing);
  trailing.raw(state);
  EXPECT_THROW(stack.platform.decode_frame(trailing.bytes()), serial::MalformedError);
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
