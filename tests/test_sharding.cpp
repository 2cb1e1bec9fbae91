// Lock-space sharding tests: the key → group router, the per-group
// LockSpace, parallel commits across disjoint groups, multi-group
// write-sets, per-key ordering, the per-group Theorem-2 monitor under
// contention and message loss, the num_lock_groups = 1 golden path, and the
// PaperLiteral {2,2,1} tie-rule deadlock that TotalOrder resolves.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "marp/priority.hpp"
#include "marp/protocol.hpp"
#include "net/latency.hpp"
#include "net/topology.hpp"
#include "runner/consistency.hpp"
#include "runner/experiment.hpp"
#include "shard/lock_space.hpp"
#include "shard/router.hpp"
#include "sim/simulator.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

namespace marp::core {
namespace {

using namespace marp::sim::literals;

// ---------- ShardRouter ----------

TEST(ShardRouter, SingleGroupRoutesEverythingToZero) {
  shard::ShardRouter router(1);
  EXPECT_EQ(router.group_of("item"), 0u);
  EXPECT_EQ(router.group_of(""), 0u);
  EXPECT_EQ(router.group_of("item-42"), 0u);
}

TEST(ShardRouter, DeterministicAndInRange) {
  shard::ShardRouter router(8);
  for (int i = 0; i < 256; ++i) {
    const std::string key = "item-" + std::to_string(i);
    const shard::GroupId g = router.group_of(key);
    EXPECT_LT(g, 8u);
    // Pure function: a second router with the same shard count agrees.
    EXPECT_EQ(shard::ShardRouter(8).group_of(key), g);
  }
}

TEST(ShardRouter, GroupsOfIsSortedAndDeduplicated) {
  shard::ShardRouter router(16);
  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) keys.push_back(std::string("k").append(std::to_string(i)));
  keys.push_back("k0");  // duplicate key
  const auto groups = router.groups_of(keys);
  EXPECT_TRUE(std::is_sorted(groups.begin(), groups.end()));
  EXPECT_EQ(std::adjacent_find(groups.begin(), groups.end()), groups.end());
  for (const shard::GroupId g : groups) EXPECT_LT(g, 16u);
}

TEST(ShardRouter, SpreadsKeysAcrossGroups) {
  // FNV-1a over "item-N" should touch every group and keep the load within
  // a loose factor of uniform — a regression net against accidental
  // hash-quality loss, not a statistical claim.
  shard::ShardRouter router(8);
  std::vector<std::size_t> load(8, 0);
  for (int i = 0; i < 512; ++i) ++load[router.group_of("item-" + std::to_string(i))];
  for (std::size_t g = 0; g < 8; ++g) {
    EXPECT_GT(load[g], 512u / 8 / 4) << "group " << g << " nearly empty";
    EXPECT_LT(load[g], 512u / 8 * 4) << "group " << g << " overloaded";
  }
}

TEST(ShardRouter, StableHashIsFixedForever) {
  // The wire format and every independent router depend on these exact
  // values; changing the hash silently splits the cluster's lock space.
  EXPECT_EQ(shard::ShardRouter::stable_hash(""), 0xCBF29CE484222325ULL);
  EXPECT_EQ(shard::ShardRouter::stable_hash("a"), 0xAF63DC4C8601EC8CULL);
}

TEST(ShardRouter, GoldenHashAndRoutingTable) {
  // Golden values computed by an independent FNV-1a implementation
  // (offset 0xCBF29CE484222325, prime 0x100000001B3). Each row also pins
  // group_of under 2-, 4-, and 8-way routing: hash % G is the routing
  // contract, so these rows freeze the *placement* of real workload keys,
  // not just the hash bits. Any mismatch means existing deployments would
  // route the same key to a different Locking List after an upgrade.
  struct Golden {
    const char* key;
    std::uint64_t hash;
    shard::GroupId mod2, mod4, mod8;
  };
  constexpr Golden kTable[] = {
      {"", 0xCBF29CE484222325ULL, 1, 1, 5},
      {"alpha", 0x8AC625BB85ED202BULL, 1, 3, 3},
      {"beta", 0x7627619B954620A7ULL, 1, 3, 7},
      {"gamma", 0x229176BD1F6BA96AULL, 0, 2, 2},
      {"delta", 0x52076675EC13A0C1ULL, 1, 1, 1},
      {"key-0", 0x71135BF295F28059ULL, 1, 1, 1},
      {"key-1", 0x71135AF295F27EA6ULL, 0, 2, 6},
      {"key-2", 0x711359F295F27CF3ULL, 1, 3, 3},
      {"key-3", 0x711358F295F27B40ULL, 0, 0, 0},
      {"user:42", 0x6C151EA4DCD221C2ULL, 0, 2, 2},
      {"the same bytes hash the same", 0xCBE33480B7DE2F02ULL, 0, 2, 2},
  };
  const shard::ShardRouter r2(2), r4(4), r8(8);
  for (const Golden& row : kTable) {
    EXPECT_EQ(shard::ShardRouter::stable_hash(row.key), row.hash) << row.key;
    EXPECT_EQ(r2.group_of(row.key), row.mod2) << row.key;
    EXPECT_EQ(r4.group_of(row.key), row.mod4) << row.key;
    EXPECT_EQ(r8.group_of(row.key), row.mod8) << row.key;
  }
}

// ---------- LockSpace ----------

agent::AgentId aid(std::uint32_t n) { return agent::AgentId{n, n * 100, 0}; }

TEST(LockSpace, GroupsAreIndependent) {
  shard::LockSpace space(4);
  space.group(0).ll.append(aid(1), sim::SimTime::millis(1));
  space.group(2).holder = aid(2);
  EXPECT_EQ(space.group(0).ll.size(), 1u);
  EXPECT_EQ(space.group(1).ll.size(), 0u);
  EXPECT_FALSE(space.group(0).holder.has_value());
  EXPECT_TRUE(space.group(2).holder.has_value());
  EXPECT_EQ(space.total_queued(), 1u);
}

TEST(LockSpace, ReleaseGrantsHonoursAttemptFence) {
  shard::LockSpace space(2);
  space.group(0).holder = aid(1);
  space.group(0).holder_attempt = 5;
  space.group(1).holder = aid(1);
  space.group(1).holder_attempt = 7;
  // Withdrawing attempt 5 releases only the grants taken at <= 5.
  EXPECT_TRUE(space.release_grants(aid(1), 5));
  EXPECT_FALSE(space.group(0).holder.has_value());
  EXPECT_TRUE(space.group(1).holder.has_value());
  EXPECT_FALSE(space.release_grants(aid(2), 99));  // not the holder
}

TEST(LockSpace, PurgeDropsEveryTrace) {
  shard::LockSpace space(3);
  space.group(0).ll.append(aid(1), sim::SimTime::millis(1));
  space.group(1).ll.append(aid(1), sim::SimTime::millis(1));
  space.group(1).ll.append(aid(2), sim::SimTime::millis(2));
  space.group(2).holder = aid(1);
  EXPECT_TRUE(space.purge(aid(1)));
  EXPECT_EQ(space.total_queued(), 1u);  // aid(2) survives
  EXPECT_FALSE(space.group(2).holder.has_value());
  EXPECT_FALSE(space.purge(aid(1)));  // nothing left to drop
}

// ---------- end-to-end: a MARP stack with lock groups ----------

struct Stack {
  explicit Stack(std::size_t n, MarpConfig config = {}, std::uint64_t seed = 1)
      : simulator(seed),
        network(simulator, net::make_lan_mesh(n, 2_ms),
                std::make_unique<net::ConstantLatency>(2_ms)),
        platform(network),
        protocol(network, platform, config) {
    protocol.set_outcome_handler(
        [this](const replica::Outcome& outcome) { trace.record(outcome); });
  }

  replica::Request write(std::uint64_t id, net::NodeId origin,
                         const std::string& key, const std::string& value) {
    replica::Request request;
    request.id = id;
    request.kind = replica::RequestKind::Write;
    request.key = key;
    request.value = value;
    request.origin = origin;
    request.submitted = simulator.now();
    return request;
  }

  sim::Simulator simulator;
  net::Network network;
  agent::AgentPlatform platform;
  MarpProtocol protocol;
  workload::TraceCollector trace;
};

/// Two keys guaranteed to live in different groups under `num_groups`.
std::pair<std::string, std::string> two_keys_in_distinct_groups(
    std::size_t num_groups) {
  shard::ShardRouter router(num_groups);
  const std::string first = "item-0";
  const shard::GroupId g0 = router.group_of(first);
  for (int i = 1; i < 1000; ++i) {
    std::string candidate = "item-" + std::to_string(i);
    if (router.group_of(candidate) != g0) return {first, candidate};
  }
  ADD_FAILURE() << "router maps everything to one group";
  return {first, first};
}

TEST(Sharding, DisjointGroupsCommitInParallel) {
  // Two writers on keys in different lock groups must hold their locks
  // concurrently: both obtain their group's majority before either's
  // session finishes — impossible under the paper's single lock, where the
  // loser waits for the winner's COMMIT.
  MarpConfig config;
  config.num_lock_groups = 8;
  Stack stack(5, config);
  const auto [key_a, key_b] = two_keys_in_distinct_groups(8);
  stack.protocol.submit(stack.write(1, 0, key_a, "a"));
  stack.protocol.submit(stack.write(2, 1, key_b, "b"));
  stack.simulator.run(60_s);

  ASSERT_EQ(stack.trace.successful_writes(), 2u);
  EXPECT_EQ(stack.protocol.stats().mutex_violations, 0u);
  const auto& outcomes = stack.trace.outcomes();
  ASSERT_EQ(outcomes.size(), 2u);
  const sim::SimTime lock_late =
      std::max(outcomes[0].lock_obtained, outcomes[1].lock_obtained);
  const sim::SimTime done_early =
      std::min(outcomes[0].completed, outcomes[1].completed);
  EXPECT_LT(lock_late, done_early)
      << "critical sections did not overlap: sharding is not parallelising";
}

TEST(Sharding, MultiGroupWriteSetCommitsAtomically) {
  // One agent carrying writes for two groups: a single commit record with
  // both entries, each tagged with its own group.
  MarpConfig config;
  config.num_lock_groups = 8;
  config.batch_size = 2;
  Stack stack(5, config);
  const auto [key_a, key_b] = two_keys_in_distinct_groups(8);
  stack.protocol.submit(stack.write(1, 0, key_a, "a"));
  stack.protocol.submit(stack.write(2, 0, key_b, "b"));
  stack.simulator.run(60_s);

  EXPECT_EQ(stack.trace.successful_writes(), 2u);
  ASSERT_EQ(stack.protocol.commit_log().size(), 1u);
  const auto& record = stack.protocol.commit_log()[0];
  ASSERT_EQ(record.entries.size(), 2u);
  EXPECT_NE(record.entries[0].group, record.entries[1].group);
  // Both replicas' stores converged on both keys.
  for (net::NodeId node = 0; node < 5; ++node) {
    EXPECT_TRUE(stack.protocol.server(node).store().read(key_a).has_value());
    EXPECT_TRUE(stack.protocol.server(node).store().read(key_b).has_value());
  }
}

TEST(Sharding, OverlappingGroupSetsBothCommit) {
  // Agent 1 writes {A, B}, agent 2 writes {B, C}: they conflict in B's
  // group, so the all-or-nothing grant rule serializes them — but both must
  // eventually commit (liveness of the withdraw/defer scheme across groups).
  MarpConfig config;
  config.num_lock_groups = 8;
  config.batch_size = 2;
  Stack stack(5, config);
  const auto [key_a, key_b] = two_keys_in_distinct_groups(8);
  stack.protocol.submit(stack.write(1, 0, key_a, "a1"));
  stack.protocol.submit(stack.write(2, 0, key_b, "b1"));
  stack.protocol.submit(stack.write(3, 1, key_b, "b2"));
  stack.protocol.submit(stack.write(4, 1, key_a, "a2"));
  stack.simulator.run(60_s);

  EXPECT_EQ(stack.trace.successful_writes(), 4u);
  EXPECT_EQ(stack.protocol.stats().mutex_violations, 0u);
  EXPECT_EQ(stack.protocol.commit_log().size(), 2u);
  const auto per_key = runner::check_per_key_order(stack.protocol.commit_log());
  EXPECT_TRUE(per_key.ok) << (per_key.problems.empty() ? "" : per_key.problems[0]);
  // Replicas converged on a single final value for the contended key.
  const auto reference = stack.protocol.server(0).store().read(key_b);
  ASSERT_TRUE(reference.has_value());
  for (net::NodeId node = 1; node < 5; ++node) {
    const auto value = stack.protocol.server(node).store().read(key_b);
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(value->value, reference->value);
  }
}

TEST(Sharding, ContendedShardedRunKeepsPerKeyOrderAndMutex) {
  // Many writers over a small key space with 4 groups: every group's
  // Theorem 2 monitor must stay silent, the per-group commit log must be
  // version-ordered, and every key's history must be ordered.
  MarpConfig config;
  config.num_lock_groups = 4;
  Stack stack(5, config);
  std::uint64_t id = 1;
  for (int round = 0; round < 4; ++round) {
    stack.simulator.schedule(sim::SimTime::millis(round * 3), [&stack, round, &id] {
      for (net::NodeId node = 0; node < 5; ++node) {
        const std::string key = "item-" + std::to_string((round + node) % 8);
        stack.protocol.submit(stack.write(
            id++, node, key, std::string("r").append(std::to_string(round)).append("n").append(std::to_string(node))));
      }
    });
  }
  stack.simulator.run(120_s);

  EXPECT_EQ(stack.trace.successful_writes(), 20u);
  EXPECT_EQ(stack.protocol.stats().mutex_violations, 0u);
  const auto groups = runner::check_commit_order(stack.protocol.commit_log(), 4);
  EXPECT_TRUE(groups.ok) << (groups.problems.empty() ? "" : groups.problems[0]);
  const auto per_key = runner::check_per_key_order(stack.protocol.commit_log());
  EXPECT_TRUE(per_key.ok) << (per_key.problems.empty() ? "" : per_key.problems[0]);
}

TEST(Sharding, MutexMonitorSilentUnderMessageLoss) {
  // Safety must not depend on delivery: with 20% of messages vanishing
  // (UDP-like Drop mode), per-group mutual exclusion and per-key order must
  // still hold. Progress is not asserted — only that what commits is safe.
  MarpConfig config;
  config.num_lock_groups = 4;
  Stack stack(5, config, /*seed=*/7);
  stack.network.set_loss_mode(net::Network::LossMode::Drop);
  stack.network.set_drop_probability(0.2);
  std::uint64_t id = 1;
  for (int round = 0; round < 3; ++round) {
    stack.simulator.schedule(sim::SimTime::millis(round * 5), [&stack, round, &id] {
      for (net::NodeId node = 0; node < 5; ++node) {
        stack.protocol.submit(stack.write(id++, node,
                                          "item-" + std::to_string(node % 4),
                                          std::string("x").append(std::to_string(round))));
      }
    });
  }
  stack.simulator.run(120_s);

  EXPECT_EQ(stack.protocol.stats().mutex_violations, 0u);
  const auto per_key = runner::check_per_key_order(stack.protocol.commit_log());
  EXPECT_TRUE(per_key.ok) << (per_key.problems.empty() ? "" : per_key.problems[0]);
}

TEST(Sharding, RetransmitLossDrainsAndCommitsEverything) {
  // With the paper's reliable-channel model (Retransmit), loss only delays:
  // every update must eventually commit, still without monitor violations.
  MarpConfig config;
  config.num_lock_groups = 4;
  Stack stack(5, config, /*seed=*/11);
  stack.network.set_loss_mode(net::Network::LossMode::Retransmit);
  stack.network.set_drop_probability(0.2);
  stack.network.set_retransmit_timeout(20_ms);
  std::uint64_t id = 1;
  for (net::NodeId node = 0; node < 5; ++node) {
    stack.protocol.submit(
        stack.write(id++, node, "item-" + std::to_string(node % 4), "v"));
  }
  stack.simulator.run(300_s);

  EXPECT_EQ(stack.trace.successful_writes(), 5u);
  EXPECT_EQ(stack.protocol.stats().mutex_violations, 0u);
}

// ---------- golden path: one group is the paper, bit for bit ----------

std::vector<std::string> commit_log_fingerprint(const MarpProtocol& protocol) {
  std::vector<std::string> lines;
  for (const auto& record : protocol.commit_log()) {
    std::string line = record.agent.to_string() + "@" +
                       std::to_string(record.committed.as_micros());
    for (const auto& entry : record.entries) {
      line += "|" + entry.key + "#" + std::to_string(entry.group) + "@" +
              std::to_string(entry.version.time_us) + "," +
              std::to_string(entry.version.writer);
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

void run_fixed_contended_workload(Stack& stack) {
  std::uint64_t id = 1;
  for (int round = 0; round < 3; ++round) {
    stack.simulator.schedule(sim::SimTime::millis(round * 4), [&stack, round, &id] {
      for (net::NodeId node = 0; node < 5; ++node) {
        stack.protocol.submit(stack.write(
            id++, node, "item", std::string("r").append(std::to_string(round)).append("n").append(std::to_string(node))));
      }
    });
  }
  stack.simulator.run(120_s);
}

TEST(Sharding, SingleGroupIsDeterministicAcrossRuns) {
  // Same seed, same workload, run twice: identical commit logs (agent ids,
  // commit times, versions). The sharding layer must not have introduced
  // any iteration-order or hashing nondeterminism.
  MarpConfig config;  // num_lock_groups defaults to 1
  Stack first(5, config, /*seed=*/42);
  run_fixed_contended_workload(first);
  Stack second(5, config, /*seed=*/42);
  run_fixed_contended_workload(second);
  EXPECT_EQ(first.trace.successful_writes(), 15u);
  EXPECT_EQ(commit_log_fingerprint(first.protocol),
            commit_log_fingerprint(second.protocol));
}

TEST(Sharding, DefaultConfigEqualsExplicitSingleGroup) {
  // The default MarpConfig and an explicit num_lock_groups = 1 must be the
  // same protocol, down to every commit's timestamp.
  Stack defaulted(5, MarpConfig{}, /*seed=*/42);
  run_fixed_contended_workload(defaulted);
  MarpConfig explicit_config;
  explicit_config.num_lock_groups = 1;
  Stack explicited(5, explicit_config, /*seed=*/42);
  run_fixed_contended_workload(explicited);
  EXPECT_EQ(commit_log_fingerprint(defaulted.protocol),
            commit_log_fingerprint(explicited.protocol));
  // And it is a total order, as the paper requires of the single lock.
  const auto order =
      runner::check_commit_order(defaulted.protocol.commit_log(), 1);
  EXPECT_TRUE(order.ok) << (order.problems.empty() ? "" : order.problems[0]);
}

// ---------- PaperLiteral {2,2,1} deadlock regression ----------

TEST(TieBreakRegression, PaperLiteralStallsOnTwoTwoOneSplit) {
  // Head counts {2,2,1} over N = 5: S = 2, M = 2, and the paper's tie rule
  // S + (N − M·S) < N/2 gives 2 + 1 = 3 < 2.5 — false, so nobody may take
  // the tie-break and *every* agent keeps waiting: a reachable deadlock in
  // the published algorithm. TotalOrder resolves the same view decisively.
  const agent::AgentId a1{0, 100, 0}, a2{1, 100, 0}, a3{2, 100, 0};
  LockTable table;
  table[0] = LockSnapshot{{a1, a2}, 10};
  table[1] = LockSnapshot{{a1, a3}, 10};
  table[2] = LockSnapshot{{a2, a1}, 10};
  table[3] = LockSnapshot{{a2, a3}, 10};
  table[4] = LockSnapshot{{a3, a1}, 10};

  for (const agent::AgentId& self : {a1, a2, a3}) {
    const Decision literal =
        decide(table, {}, self, 5, TieBreakMode::PaperLiteral);
    EXPECT_EQ(literal.kind, Decision::Kind::Unknown)
        << "PaperLiteral unexpectedly resolved for " << self.to_string();
  }
  // TotalOrder: a1 and a2 tie at two heads; the smaller id (a1) wins, and
  // every agent agrees on that from the same information.
  const Decision w1 = decide(table, {}, a1, 5, TieBreakMode::TotalOrder);
  EXPECT_EQ(w1.kind, Decision::Kind::Win);
  for (const agent::AgentId& loser : {a2, a3}) {
    const Decision d = decide(table, {}, loser, 5, TieBreakMode::TotalOrder);
    EXPECT_EQ(d.kind, Decision::Kind::Lose);
    ASSERT_TRUE(d.winner.has_value());
    EXPECT_EQ(*d.winner, a1);
  }
}

// ---------- run_experiment plumbing ----------

TEST(Sharding, ExperimentRunnerAuditsShardedRuns) {
  runner::ExperimentConfig config;
  config.servers = 5;
  config.protocol = runner::ProtocolKind::Marp;
  config.seed = 3;
  config.marp.num_lock_groups = 8;
  config.marp.batch_size = 2;
  config.workload.mean_interarrival_ms = 20.0;
  config.workload.num_keys = 16;
  config.workload.writes_per_update = 2;
  config.workload.duration = sim::SimTime::seconds(2);
  config.workload.max_requests_per_server = 20;
  config.drain = sim::SimTime::seconds(120);

  const runner::RunResult result = runner::run_experiment(config);
  EXPECT_TRUE(result.consistent)
      << (result.consistency_problems.empty() ? ""
                                              : result.consistency_problems[0]);
  EXPECT_EQ(result.mutex_violations, 0u);
  EXPECT_GT(result.successful_writes, 0u);
  EXPECT_EQ(result.failed_writes, 0u);
}

TEST(Sharding, WritesPerUpdateExpandsWriteArrivals) {
  sim::Simulator simulator(5);
  workload::WorkloadConfig config;
  config.mean_interarrival_ms = 10.0;
  config.num_keys = 8;
  config.writes_per_update = 3;
  config.duration = sim::SimTime::seconds(1);
  std::vector<replica::Request> seen;
  workload::RequestGenerator generator(
      simulator, 2, config,
      [&seen](const replica::Request& request) { seen.push_back(request); });
  generator.start();
  simulator.run(sim::SimTime::seconds(2));

  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.size() % 3, 0u);  // writes always arrive in triples
  EXPECT_EQ(generator.generated(), seen.size());
  // Each triple shares one submission instant (one logical update).
  for (std::size_t i = 0; i + 2 < seen.size(); i += 3) {
    EXPECT_EQ(seen[i].submitted, seen[i + 1].submitted);
    EXPECT_EQ(seen[i].submitted, seen[i + 2].submitted);
    EXPECT_EQ(seen[i].kind, replica::RequestKind::Write);
  }
}

}  // namespace
}  // namespace marp::core
