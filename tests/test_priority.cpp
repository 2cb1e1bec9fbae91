// Tests for Algorithm 1's priority calculation — the pure functions behind
// Theorems 1 and 2 — including a randomized agreement property: every agent
// applying `decide` to the same information must name the same winner.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "marp/priority.hpp"
#include "quorum/quorum.hpp"
#include "sim/random.hpp"

namespace marp::core {
namespace {

agent::AgentId aid(std::uint32_t n) { return agent::AgentId{n, n * 100, 0}; }

LockSnapshot snap(std::vector<agent::AgentId> agents, std::int64_t at = 1) {
  return LockSnapshot{std::move(agents), at};
}

TEST(FilteredHead, SkipsFinishedAgents) {
  const DoneSet done{aid(1)};
  EXPECT_EQ(*filtered_head({aid(1), aid(2), aid(3)}, done), aid(2));
  EXPECT_EQ(*filtered_head({aid(2), aid(1)}, done), aid(2));
  EXPECT_FALSE(filtered_head({aid(1)}, done).has_value());
  EXPECT_FALSE(filtered_head({}, {}).has_value());
}

TEST(TopCounts, CountsHeadsAcrossServers) {
  LockTable table;
  table[0] = snap({aid(1), aid(2)});
  table[1] = snap({aid(1)});
  table[2] = snap({aid(2), aid(1)});
  table[3] = LockSnapshot{};  // unknown server contributes nothing
  const auto counts = top_counts(table, {});
  EXPECT_EQ(counts.at(aid(1)), 2u);
  EXPECT_EQ(counts.at(aid(2)), 1u);
}

TEST(Decide, MajorityWinsWithPartialInformation) {
  LockTable table;
  table[0] = snap({aid(1)});
  table[1] = snap({aid(1)});
  table[2] = snap({aid(1), aid(2)});
  // 3 of 5 heads known and all belong to agent 1 → majority of N=5.
  const Decision mine = decide(table, {}, aid(1), 5, TieBreakMode::TotalOrder);
  EXPECT_EQ(mine.kind, Decision::Kind::Win);
  const Decision theirs = decide(table, {}, aid(2), 5, TieBreakMode::TotalOrder);
  EXPECT_EQ(theirs.kind, Decision::Kind::Lose);
  EXPECT_EQ(*theirs.winner, aid(1));
}

TEST(Decide, UnknownWithoutFullInformationAndNoMajority) {
  LockTable table;
  table[0] = snap({aid(1)});
  table[1] = snap({aid(2)});
  const Decision d = decide(table, {}, aid(1), 5, TieBreakMode::TotalOrder);
  EXPECT_EQ(d.kind, Decision::Kind::Unknown);
}

TEST(Decide, TotalOrderBreaksDeadlockedHeads) {
  // The {2,2,1} split that deadlocks the paper's literal rule (N = 5).
  LockTable table;
  table[0] = snap({aid(1)});
  table[1] = snap({aid(1)});
  table[2] = snap({aid(2)});
  table[3] = snap({aid(2)});
  table[4] = snap({aid(3)});
  const Decision d = decide(table, {}, aid(1), 5, TieBreakMode::TotalOrder);
  EXPECT_EQ(d.kind, Decision::Kind::Win);  // aid(1) < aid(2): smallest id wins
  const Decision d2 = decide(table, {}, aid(2), 5, TieBreakMode::TotalOrder);
  EXPECT_EQ(d2.kind, Decision::Kind::Lose);
  EXPECT_EQ(*d2.winner, aid(1));

  // The literal rule declines: S=2, M=2 → 2 + (5−4) = 3, and 2·3 < 5 fails.
  const Decision literal = decide(table, {}, aid(1), 5, TieBreakMode::PaperLiteral);
  EXPECT_EQ(literal.kind, Decision::Kind::Unknown);
}

TEST(Decide, PaperLiteralFiresWhenConditionHolds) {
  // N = 7, M = 3 agents each topping S = 2 servers, 1 leftover head:
  // S + (N − M·S) = 2 + 1 = 3 and 2·3 < 7 → tie-break by id applies.
  LockTable table;
  table[0] = snap({aid(1)});
  table[1] = snap({aid(1)});
  table[2] = snap({aid(2)});
  table[3] = snap({aid(2)});
  table[4] = snap({aid(3)});
  table[5] = snap({aid(3)});
  table[6] = snap({aid(4)});
  const Decision d = decide(table, {}, aid(1), 7, TieBreakMode::PaperLiteral);
  EXPECT_EQ(d.kind, Decision::Kind::Win);
  EXPECT_EQ(*d.winner, aid(1));
}

TEST(PaperTieCondition, MatchesFormula) {
  // S + (N − M·S) < N/2, with exact halves.
  EXPECT_TRUE(paper_tie_condition(2, 3, 7));   // 2+1=3 < 3.5
  EXPECT_FALSE(paper_tie_condition(2, 2, 5));  // 2+1=3 !< 2.5
  EXPECT_FALSE(paper_tie_condition(1, 2, 5));  // 1+3=4 !< 2.5
  EXPECT_TRUE(paper_tie_condition(3, 3, 9));   // 3+0=3 < 4.5
}

TEST(Decide, DoneAgentsAreInvisible) {
  LockTable table;
  table[0] = snap({aid(9), aid(1)});
  table[1] = snap({aid(9), aid(1)});
  table[2] = snap({aid(1)});
  const DoneSet done{aid(9)};
  const Decision d = decide(table, done, aid(1), 5, TieBreakMode::TotalOrder);
  EXPECT_EQ(d.kind, Decision::Kind::Win);  // 9 committed → 1 heads 3 of 5
}

TEST(MergeLockTables, KeepsFresherSnapshots) {
  LockTable mine;
  mine[0] = snap({aid(1)}, 100);
  mine[1] = snap({aid(2)}, 50);
  LockTable theirs;
  theirs[0] = snap({aid(3)}, 60);   // staler: ignored
  theirs[1] = snap({aid(4)}, 70);   // fresher: adopted
  theirs[2] = snap({aid(5)}, 10);   // new server: adopted
  merge_lock_tables(mine, theirs);
  EXPECT_EQ(mine[0].agents.front(), aid(1));
  EXPECT_EQ(mine[1].agents.front(), aid(4));
  EXPECT_EQ(mine[2].agents.front(), aid(5));
}

TEST(LockTableSerialization, RoundTrips) {
  LockTable table;
  table[0] = snap({aid(1), aid(2)}, 111);
  table[3] = snap({}, 222);
  serial::Writer w;
  serialize_lock_table(w, table);
  serial::Reader r(w.bytes());
  const LockTable copy = deserialize_lock_table(r);
  ASSERT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.at(0).agents, table.at(0).agents);
  EXPECT_EQ(copy.at(0).observed_us, 111);
  EXPECT_TRUE(copy.at(3).agents.empty());
  EXPECT_EQ(copy.at(3).observed_us, 222);
}

// ---- §3.3 extension: predicting the full lock order ----

TEST(PredictedOrder, SimulatesSuccessiveWinners) {
  // Queues: s0 [1,2], s1 [1,3], s2 [2,1], s3 [2,3], s4 [3,1].
  LockTable table;
  table[0] = snap({aid(1), aid(2)});
  table[1] = snap({aid(1), aid(3)});
  table[2] = snap({aid(2), aid(1)});
  table[3] = snap({aid(2), aid(3)});
  table[4] = snap({aid(3), aid(1)});
  // Heads {1:2, 2:2, 3:1}: tie-break gives 1; with 1 done, heads become
  // {2:3, 3:2} → 2 wins by majority; then 3 remains.
  const auto order = predicted_order(table, {}, 5);
  EXPECT_EQ(order, (std::vector<agent::AgentId>{aid(1), aid(2), aid(3)}));
}

TEST(PredictedOrder, LimitAndDoneFiltering) {
  LockTable table;
  table[0] = snap({aid(1), aid(2)});
  table[1] = snap({aid(1), aid(2)});
  table[2] = snap({aid(1), aid(2)});
  const auto top1 = predicted_order(table, {}, 3, {}, 1);
  EXPECT_EQ(top1, (std::vector<agent::AgentId>{aid(1)}));
  // With agent 1 already done, agent 2 is next.
  const auto after = predicted_order(table, {aid(1)}, 3);
  EXPECT_EQ(after, (std::vector<agent::AgentId>{aid(2)}));
}

TEST(PredictedOrder, StopsWhenHeadsUnknown) {
  LockTable table;
  table[0] = snap({aid(1)});
  table[1] = snap({aid(2)});  // only 2 of 5 heads known: no tie-break
  const auto order = predicted_order(table, {}, 5);
  EXPECT_TRUE(order.empty());
}

TEST(PredictedOrder, RespectsVoteWeights) {
  LockTable table;
  table[0] = snap({aid(2), aid(1)});
  table[1] = snap({aid(1)});
  table[2] = snap({aid(1)});
  // Unweighted: agent 1 heads 2 of 3 → majority → first.
  EXPECT_EQ(predicted_order(table, {}, 3).front(), aid(1));
  // Node 0 carries 5 of 7 votes: agent 2's single heavy head wins.
  EXPECT_EQ(predicted_order(table, {}, 3, {5, 1, 1}).front(), aid(2));
}

class PredictedOrderAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PredictedOrderAgreement, RankingIsCompleteAndConsistentWithDecide) {
  sim::Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 3 + rng.bounded(5);
    const std::size_t agents = 2 + rng.bounded(5);
    std::vector<agent::AgentId> ids;
    for (std::uint32_t a = 0; a < agents; ++a) ids.push_back(aid(a + 1));
    LockTable table;
    for (net::NodeId s = 0; s < n; ++s) {
      std::vector<agent::AgentId> queue = ids;
      rng.shuffle(queue);
      queue.resize(1 + rng.bounded(queue.size()));
      table[s] = snap(std::move(queue), trial);
    }
    std::set<agent::AgentId> queued;
    for (const auto& [node, snapshot] : table) {
      for (const auto& id : snapshot.agents) queued.insert(id);
    }

    const auto order = predicted_order(table, {}, n);
    ASSERT_FALSE(order.empty());  // rank 1 always exists with full heads
    // Every rank k must be exactly decide()'s winner once ranks 1..k−1 are
    // treated as done — the prediction is a faithful simulation of the
    // successive-winner process.
    DoneSet done;
    std::set<agent::AgentId> ranked;
    for (const agent::AgentId& predicted : order) {
      EXPECT_TRUE(queued.contains(predicted));
      EXPECT_TRUE(ranked.insert(predicted).second);  // no duplicates
      const Decision expected =
          decide(table, done, predicted, n, TieBreakMode::TotalOrder);
      ASSERT_EQ(expected.kind, Decision::Kind::Win)
          << "prediction disagrees with decide() at rank " << ranked.size();
      done.insert(predicted);
    }
    // The prediction stops exactly where decide() becomes undecidable for
    // everyone remaining (no majority and some head unknown).
    if (ranked.size() < queued.size()) {
      for (const agent::AgentId& remaining : queued) {
        if (ranked.contains(remaining)) continue;
        const Decision stuck =
            decide(table, done, remaining, n, TieBreakMode::TotalOrder);
        EXPECT_NE(stuck.kind, Decision::Kind::Win);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredictedOrderAgreement,
                         ::testing::Values(7, 77, 777));

// ---- Theorem 1/2 property: agreement under a shared view ----

class DecideAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecideAgreement, AllAgentsNameTheSameWinner) {
  sim::Rng rng(GetParam());
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 3 + rng.bounded(6);        // 3..8 servers
    const std::size_t agents = 1 + rng.bounded(6);   // 1..6 agents
    std::vector<agent::AgentId> ids;
    for (std::uint32_t a = 0; a < agents; ++a) ids.push_back(aid(a + 1));

    // Random full-information lock table: every server has a queue that is a
    // random permutation of a random non-empty subset of the agents.
    LockTable table;
    for (net::NodeId s = 0; s < n; ++s) {
      std::vector<agent::AgentId> queue = ids;
      rng.shuffle(queue);
      queue.resize(1 + rng.bounded(queue.size()));
      table[s] = snap(std::move(queue), trial);
    }

    std::set<agent::AgentId> winners;
    std::size_t win_count = 0;
    for (const auto& self : ids) {
      const Decision d = decide(table, {}, self, n, TieBreakMode::TotalOrder);
      // Full information + TotalOrder: never Unknown.
      EXPECT_NE(d.kind, Decision::Kind::Unknown);
      ASSERT_TRUE(d.winner.has_value());
      winners.insert(*d.winner);
      if (d.kind == Decision::Kind::Win) {
        ++win_count;
        EXPECT_EQ(*d.winner, self);
      }
    }
    // Theorem 1/2: everyone agrees, and at most one self-declared winner.
    EXPECT_EQ(winners.size(), 1u);
    EXPECT_LE(win_count, 1u);
    // The agreed winner must actually be one of the competing agents.
    EXPECT_TRUE(std::find(ids.begin(), ids.end(), *winners.begin()) != ids.end());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecideAgreement,
                         ::testing::Values(1, 17, 23, 901, 4242));

// ---- Independent oracle: the TotalOrder rule, restated from scratch ----
//
// decide() is checked against a second implementation of the same spec:
// majority of filtered heads wins outright; otherwise, with every head
// known, the smallest AgentId among the maximally-counted heads wins. Any
// divergence between the two is a bug in one of them.

std::optional<agent::AgentId> oracle_winner(const LockTable& table,
                                            const DoneSet& done,
                                            std::size_t n) {
  std::map<agent::AgentId, std::uint32_t> counts;
  std::size_t heads_known = 0;
  for (const auto& [node, snapshot] : table) {
    if (!snapshot.known()) continue;
    if (const auto head = filtered_head(snapshot.agents, done)) {
      ++counts[*head];
      ++heads_known;
    }
  }
  for (const auto& [id, count] : counts) {
    if (2 * count > n) return id;  // strict majority of all N lists
  }
  if (heads_known < n) return std::nullopt;  // some head unknown: no tie path
  std::uint32_t best = 0;
  for (const auto& [id, count] : counts) best = std::max(best, count);
  std::optional<agent::AgentId> winner;
  for (const auto& [id, count] : counts) {
    if (count == best && (!winner || id < *winner)) winner = id;
  }
  return winner;
}

class DecideOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecideOracle, MatchesIndependentRestatementOfTheRule) {
  sim::Rng rng(GetParam());
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 3 + rng.bounded(6);
    const std::size_t agents = 1 + rng.bounded(6);
    std::vector<agent::AgentId> ids;
    for (std::uint32_t a = 0; a < agents; ++a) ids.push_back(aid(a + 1));
    // Random partial-information table: some servers unknown, some done.
    LockTable table;
    for (net::NodeId s = 0; s < n; ++s) {
      if (rng.bounded(5) == 0) continue;  // never observed
      std::vector<agent::AgentId> queue = ids;
      rng.shuffle(queue);
      queue.resize(rng.bounded(queue.size() + 1));
      table[s] = snap(std::move(queue), trial);
    }
    DoneSet done;
    for (const auto& id : ids) {
      if (rng.bounded(4) == 0) done.insert(id);
    }

    const auto expected = oracle_winner(table, done, n);
    for (const auto& self : ids) {
      const Decision d = decide(table, done, self, n, TieBreakMode::TotalOrder);
      if (!expected) {
        EXPECT_EQ(d.kind, Decision::Kind::Unknown);
      } else if (self == *expected) {
        EXPECT_EQ(d.kind, Decision::Kind::Win);
        EXPECT_EQ(*d.winner, *expected);
      } else {
        EXPECT_EQ(d.kind, Decision::Kind::Lose);
        EXPECT_EQ(*d.winner, *expected);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecideOracle, ::testing::Values(3, 31, 313));

// ---- Flat agent-state containers against node-based references ----

agent::AgentId random_id(sim::Rng& rng) {
  // A small id space so inserts collide and merges overlap.
  return agent::AgentId{static_cast<net::NodeId>(rng.bounded(4)),
                        static_cast<std::int64_t>(rng.bounded(40)),
                        static_cast<std::uint32_t>(rng.bounded(3))};
}

TEST(FlatDoneSet, RandomInsertsAndMergesMatchStdSet) {
  sim::Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    DoneSet flat;
    std::set<agent::AgentId> ref;
    for (int op = 0; op < 40; ++op) {
      if (rng.bounded(3) == 0) {
        const agent::AgentId id = random_id(rng);
        EXPECT_EQ(flat.insert(id), ref.insert(id).second);
      } else {
        // A batch merge of a strictly ascending list (a UL's sorted view).
        std::set<agent::AgentId> batch;
        const std::size_t n = rng.bounded(12);
        for (std::size_t i = 0; i < n; ++i) batch.insert(random_id(rng));
        const std::vector<agent::AgentId> ascending(batch.begin(), batch.end());
        flat.merge_ascending(ascending);
        ref.insert(batch.begin(), batch.end());
      }
      ASSERT_EQ(flat.size(), ref.size());
      ASSERT_TRUE(std::equal(flat.begin(), flat.end(), ref.begin()));
      const agent::AgentId probe = random_id(rng);
      EXPECT_EQ(flat.contains(probe), ref.contains(probe));
    }
  }
}

/// The ascending id-list coding restated over a std::set: the count, then
/// per id its created_us delta from the previous id (the first from 0),
/// origin and seq.
void ref_write_ids(serial::Writer& w, const std::set<agent::AgentId>& ids) {
  w.varint(ids.size());
  std::int64_t prev = 0;
  for (const agent::AgentId& id : ids) {
    w.varint(static_cast<std::uint64_t>(id.created_us - prev));
    w.varint(id.origin);
    w.varint(id.seq);
    prev = id.created_us;
  }
}

TEST(FlatDoneSet, WireFormIsAscendingAndRoundTrips) {
  const DoneSet done{aid(3), aid(1), aid(2), aid(1)};
  serial::Writer w;
  serialize_done_set(w, done);
  // The ids ascending and delta-coded on created_us: aid(n) is created at
  // n * 100, so every delta after the first is 100.
  serial::Writer expected;
  ref_write_ids(expected, {aid(1), aid(2), aid(3)});
  EXPECT_EQ(w.bytes(), expected.bytes());
  EXPECT_EQ(w.bytes(), (serial::Bytes{3, 100, 1, 0, 100, 2, 0, 100, 3, 0}));
  serial::Reader r(w.bytes());
  EXPECT_EQ(deserialize_done_set(r), done);
  EXPECT_TRUE(r.at_end());
}

LockSnapshot random_snapshot(sim::Rng& rng) {
  if (rng.bounded(5) == 0) return LockSnapshot{};  // never observed
  std::vector<agent::AgentId> agents;
  const std::size_t n = rng.bounded(4);
  for (std::size_t i = 0; i < n; ++i) agents.push_back(random_id(rng));
  return LockSnapshot{std::move(agents), static_cast<std::int64_t>(rng.bounded(50))};
}

using RefTable = std::map<net::NodeId, LockSnapshot>;

// merge_lock_tables as it was specified over std::map.
void ref_merge(RefTable& table, const RefTable& incoming) {
  for (const auto& [node, snapshot] : incoming) {
    if (!snapshot.known()) continue;
    auto& slot = table[node];
    if (snapshot.observed_us > slot.observed_us) slot = snapshot;
  }
}

void expect_same_table(const LockTable& flat, const RefTable& ref) {
  ASSERT_EQ(flat.size(), ref.size());
  auto it = ref.begin();
  for (const auto& [node, snapshot] : flat) {
    ASSERT_EQ(node, it->first);
    EXPECT_EQ(snapshot.agents, it->second.agents);
    EXPECT_EQ(snapshot.observed_us, it->second.observed_us);
    ++it;
  }
  // The dictionary-coded bytes restated over std containers: the distinct
  // agents ascending, then per server its id, count, dictionary indices in
  // queue order and stamp.
  serial::Writer a, b;
  serialize_lock_table(a, flat);
  std::set<agent::AgentId> distinct;
  for (const auto& [node, snapshot] : ref) {
    distinct.insert(snapshot.agents.begin(), snapshot.agents.end());
  }
  std::map<agent::AgentId, std::uint64_t> index;
  for (const agent::AgentId& id : distinct) index.emplace(id, index.size());
  ref_write_ids(b, distinct);
  b.varint(ref.size());
  for (const auto& [node, snapshot] : ref) {
    b.varint(node);
    b.varint(snapshot.agents.size());
    for (const agent::AgentId& id : snapshot.agents) b.varint(index.at(id));
    b.svarint(snapshot.observed_us);
  }
  EXPECT_EQ(a.bytes(), b.bytes());
  // And it round-trips.
  serial::Reader r(a.bytes());
  const LockTable copy = deserialize_lock_table(r);
  EXPECT_TRUE(r.at_end());
  ASSERT_EQ(copy.size(), flat.size());
  auto mine = flat.begin();
  for (const auto& [node, snapshot] : copy) {
    EXPECT_EQ(node, mine->first);
    EXPECT_EQ(snapshot.agents, mine->second.agents);
    EXPECT_EQ(snapshot.observed_us, mine->second.observed_us);
    ++mine;
  }
}

TEST(FlatLockTable, RandomWritesAndMergesMatchStdMap) {
  sim::Rng rng(4096);
  for (int trial = 0; trial < 300; ++trial) {
    LockTable flat;
    RefTable ref;
    for (int op = 0; op < 30; ++op) {
      const auto node = static_cast<net::NodeId>(rng.bounded(12));
      switch (rng.bounded(3)) {
        case 0: {
          const LockSnapshot s = random_snapshot(rng);
          flat[node] = s;
          ref[node] = s;
          break;
        }
        case 1: {
          const LockSnapshot s = random_snapshot(rng);
          EXPECT_EQ(flat.emplace(node, s).second, ref.emplace(node, s).second);
          break;
        }
        default: {
          LockTable incoming;
          RefTable incoming_ref;
          const std::size_t n = rng.bounded(8);
          for (std::size_t i = 0; i < n; ++i) {
            const auto at = static_cast<net::NodeId>(rng.bounded(12));
            const LockSnapshot s = random_snapshot(rng);
            incoming[at] = s;
            incoming_ref[at] = s;
          }
          merge_lock_tables(flat, incoming);
          ref_merge(ref, incoming_ref);
          break;
        }
      }
      expect_same_table(flat, ref);
      EXPECT_EQ(flat.contains(node), ref.contains(node));
      EXPECT_EQ(flat.find(node) != flat.end(), ref.find(node) != ref.end());
    }
  }
}

// ---- One-pass decide() against the independent restatements ----

TEST(DecideOnePass, AgreesWithOracleAndTopCountsOverThousandsOfTables) {
  sim::Rng rng(8128);
  for (int trial = 0; trial < 4000; ++trial) {
    const std::size_t n = 1 + rng.bounded(9);
    const std::size_t agents = 1 + rng.bounded(7);
    std::vector<agent::AgentId> ids;
    for (std::uint32_t a = 0; a < agents; ++a) ids.push_back(aid(a + 1));
    LockTable table;
    for (net::NodeId s = 0; s < n; ++s) {
      if (rng.bounded(4) == 0) continue;  // never observed
      std::vector<agent::AgentId> queue = ids;
      rng.shuffle(queue);
      queue.resize(rng.bounded(queue.size() + 1));
      // Some observed-but-unknown entries (stamp −1) ride along too.
      table[s] = LockSnapshot{std::move(queue), rng.bounded(6) == 0 ? -1 : trial};
    }
    DoneSet done;
    for (const auto& id : ids) {
      if (rng.bounded(3) == 0) done.insert(id);
    }

    // Top-Count restated with std containers.
    std::map<agent::AgentId, std::uint32_t> expected_counts;
    for (const auto& [node, snapshot] : table) {
      if (!snapshot.known()) continue;
      for (const auto& id : snapshot.agents) {
        if (done.contains(id)) continue;
        ++expected_counts[id];
        break;
      }
    }
    ASSERT_EQ(top_counts(table, done), expected_counts);

    const auto expected = oracle_winner(table, done, n);
    for (const auto& self : ids) {
      const Decision d = decide(table, done, self, n, TieBreakMode::TotalOrder);
      if (!expected) {
        ASSERT_EQ(d.kind, Decision::Kind::Unknown);
      } else {
        ASSERT_EQ(d.kind, self == *expected ? Decision::Kind::Win : Decision::Kind::Lose);
        ASSERT_EQ(*d.winner, *expected);
      }
    }
  }
}

// ---- Done-free Locking Tables: stripping the UAL changes no decision ----

TEST(DoneFree, StrippedTablesDecideAsUnstrippedForEverySupersetUal) {
  sim::Rng rng(1404);
  quorum::QuorumSpec grid_spec;
  grid_spec.geometry = quorum::Geometry::Grid;
  const VoteWeights weights = {1, 2, 1, 3, 1, 1, 2, 1, 1};
  for (int trial = 0; trial < 1000; ++trial) {
    const std::size_t n = 1 + rng.bounded(9);
    std::vector<agent::AgentId> ids;
    for (std::uint32_t a = 0; a < 1 + rng.bounded(8); ++a) ids.push_back(aid(a + 1));
    LockTable table;
    for (net::NodeId s = 0; s < n; ++s) {
      if (rng.bounded(4) == 0) continue;
      std::vector<agent::AgentId> queue = ids;
      rng.shuffle(queue);
      queue.resize(rng.bounded(queue.size() + 1));
      table[s] = LockSnapshot{std::move(queue), rng.bounded(6) == 0 ? -1 : trial};
    }
    DoneSet ual;
    for (const auto& id : ids) {
      if (rng.bounded(3) == 0) ual.insert(id);
    }
    LockTable stripped = table;
    for (auto& [node, snapshot] : stripped) {
      strip_done(snapshot, ual);
      for (const auto& id : snapshot.agents) ASSERT_FALSE(ual.contains(id));
    }
    const VoteWeights votes(weights.begin(),
                            weights.begin() + static_cast<std::ptrdiff_t>(n));
    const auto grid = quorum::make_quorum_system(grid_spec, n);

    // Every superset UAL' of the UAL: each other id joins it or not.
    std::vector<agent::AgentId> rest;
    for (const auto& id : ids) {
      if (!ual.contains(id)) rest.push_back(id);
    }
    for (std::uint32_t mask = 0; mask < (1u << rest.size()); ++mask) {
      DoneSet superset = ual;
      for (std::size_t k = 0; k < rest.size(); ++k) {
        if ((mask >> k) & 1u) superset.insert(rest[k]);
      }
      ASSERT_EQ(top_counts(stripped, superset), top_counts(table, superset));
      ASSERT_EQ(top_counts(stripped, superset, votes), top_counts(table, superset, votes));
      ASSERT_EQ(predicted_order(stripped, superset, n), predicted_order(table, superset, n));
      for (const auto& self : ids) {
        for (const TieBreakMode mode : {TieBreakMode::TotalOrder, TieBreakMode::PaperLiteral}) {
          const Decision a = decide(stripped, superset, self, n, mode, votes);
          const Decision b = decide(table, superset, self, n, mode, votes);
          ASSERT_EQ(a.kind, b.kind);
          ASSERT_EQ(a.winner, b.winner);
        }
        const Decision a = decide(stripped, superset, self, n, TieBreakMode::TotalOrder, {},
                                  ProtocolMutant::None, grid.get());
        const Decision b = decide(table, superset, self, n, TieBreakMode::TotalOrder, {},
                                  ProtocolMutant::None, grid.get());
        ASSERT_EQ(a.kind, b.kind);
        ASSERT_EQ(a.winner, b.winner);
      }
    }
  }
}

TEST(DoneFree, StrippingLearnedIdsAndStrippedMergesMatchAFullStrip) {
  sim::Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    GroupLockTable held;
    for (int k = 0; k < 6; ++k) {
      held[static_cast<shard::GroupId>(rng.bounded(3))]
          [static_cast<net::NodeId>(rng.bounded(6))] = random_snapshot(rng);
    }
    LockTable incoming;
    for (int k = 0; k < 4; ++k) {
      incoming[static_cast<net::NodeId>(rng.bounded(6))] = random_snapshot(rng);
    }
    DoneSet ual;
    for (int k = 0; k < 6; ++k) ual.insert(random_id(rng));
    // The reference: merge everything unstripped, then strip it all.
    GroupLockTable expected = held;
    merge_lock_tables(expected[0], incoming);
    for (auto& [group, servers] : expected) {
      for (auto& [node, snapshot] : servers) strip_done(snapshot, ual);
    }
    // The agent path: strip the learned ids, then merge stripping adoptions.
    const std::vector<agent::AgentId> learned(ual.begin(), ual.end());
    strip_done(held, learned);
    merge_lock_tables(held[0], incoming, &ual);
    ASSERT_EQ(held.size(), expected.size());
    for (const auto& [group, servers] : expected) {
      ASSERT_EQ(held.at(group).size(), servers.size());
      for (const auto& [node, snapshot] : servers) {
        EXPECT_EQ(held.at(group).at(node).agents, snapshot.agents);
        EXPECT_EQ(held.at(group).at(node).observed_us, snapshot.observed_us);
      }
    }
  }
}

// ---- Permutation invariance: relabeling servers cannot move the lock ----

TEST(Decide, ServerRelabelingDoesNotChangeTheWinner) {
  sim::Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 3 + rng.bounded(5);
    std::vector<agent::AgentId> ids = {aid(1), aid(2), aid(3), aid(4)};
    LockTable table;
    for (net::NodeId s = 0; s < n; ++s) {
      std::vector<agent::AgentId> queue = ids;
      rng.shuffle(queue);
      queue.resize(1 + rng.bounded(queue.size()));
      table[s] = snap(std::move(queue), trial);
    }
    // With uniform votes the rule only sees the multiset of queues, so any
    // permutation of node ids must produce the identical decision.
    std::vector<net::NodeId> relabel(n);
    for (net::NodeId s = 0; s < n; ++s) relabel[s] = s;
    rng.shuffle(relabel);
    LockTable permuted;
    for (const auto& [node, snapshot] : table) permuted[relabel[node]] = snapshot;

    for (const auto& self : ids) {
      const Decision a = decide(table, {}, self, n, TieBreakMode::TotalOrder);
      const Decision b = decide(permuted, {}, self, n, TieBreakMode::TotalOrder);
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_EQ(a.winner, b.winner);
    }
  }
}

// ---- Seeded mutants: pin the exact faults the model checker must catch ----

TEST(ProtocolMutants, MajorityOffByOneAcceptsAHalfQuorum) {
  // N=3 with a single known head: the real rule has no majority (1 of 3)
  // and no full information, but the off-by-one mutant treats exactly-half
  // (2·1 ≥ 3−1) as a win. This premature Win is what lets two agents
  // update concurrently — the violation model_check --mutant majority
  // must surface on every interleaving where the second head is late.
  LockTable table;
  table[0] = snap({aid(1)});
  const Decision real = decide(table, {}, aid(1), 3, TieBreakMode::TotalOrder);
  EXPECT_EQ(real.kind, Decision::Kind::Unknown);
  const Decision mutant = decide(table, {}, aid(1), 3, TieBreakMode::TotalOrder,
                                 {}, ProtocolMutant::MajorityOffByOne);
  EXPECT_EQ(mutant.kind, Decision::Kind::Win);
}

TEST(ProtocolMutants, TieBreakLargestIdInvertsTheTieRule) {
  // Three servers, three distinct heads: a pure tie. The real rule elects
  // the smallest id; the mutant elects the largest — so two mutant agents
  // each believe a different winner, breaking Theorem 1 agreement.
  LockTable table;
  table[0] = snap({aid(1), aid(2)});
  table[1] = snap({aid(2), aid(3)});
  table[2] = snap({aid(3), aid(1)});
  const Decision real = decide(table, {}, aid(1), 3, TieBreakMode::TotalOrder);
  EXPECT_EQ(real.kind, Decision::Kind::Win);
  EXPECT_EQ(*real.winner, aid(1));
  const Decision mutant = decide(table, {}, aid(3), 3, TieBreakMode::TotalOrder,
                                 {}, ProtocolMutant::TieBreakLargestId);
  EXPECT_EQ(mutant.kind, Decision::Kind::Win);
  EXPECT_EQ(*mutant.winner, aid(3));
}

}  // namespace
}  // namespace marp::core
