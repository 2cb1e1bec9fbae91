#include "marp/priority.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace marp::core {

std::optional<agent::AgentId> filtered_head(
    const std::vector<agent::AgentId>& snapshot, const DoneSet& done) {
  for (const agent::AgentId& id : snapshot) {
    if (!done.contains(id)) return id;
  }
  return std::nullopt;
}

std::uint32_t vote_of(const VoteWeights& votes, net::NodeId node) {
  if (votes.empty()) return 1;
  MARP_REQUIRE(node < votes.size());
  return votes[node];
}

std::uint32_t total_votes(const VoteWeights& votes, std::size_t n_servers) {
  if (votes.empty()) return static_cast<std::uint32_t>(n_servers);
  MARP_REQUIRE(votes.size() == n_servers);
  std::uint32_t total = 0;
  for (std::uint32_t v : votes) total += v;
  return total;
}

namespace {

/// One agent's share of the filtered list heads.
struct HeadTally {
  agent::AgentId id;
  std::uint32_t votes = 0;
};

/// The one pass behind every priority rule: the filtered head of each known
/// list, tallied per agent (weighted by the list's votes) and returned
/// ascending by id, plus how many lists have a known, non-empty head. Heads
/// are few (a handful of competing agents), so the tally is a small vector.
std::size_t tally_heads(const LockTable& table, const DoneSet& done,
                        const VoteWeights& votes, std::vector<HeadTally>& tally) {
  tally.clear();
  std::size_t known_heads = 0;
  for (const auto& [node, snapshot] : table) {
    if (!snapshot.known()) continue;
    const auto head = filtered_head(snapshot.agents, done);
    if (!head) continue;
    ++known_heads;
    const std::uint32_t weight = vote_of(votes, node);
    auto it = std::find_if(tally.begin(), tally.end(),
                           [&](const HeadTally& t) { return t.id == *head; });
    if (it == tally.end()) {
      tally.push_back({*head, weight});
    } else {
      it->votes += weight;
    }
  }
  std::sort(tally.begin(), tally.end(),
            [](const HeadTally& a, const HeadTally& b) { return a.id < b.id; });
  return known_heads;
}

}  // namespace

namespace {

// One id of a strictly ascending list: the created_us delta from the
// previous id, then origin and seq. The delta is taken modulo 2^64, so every
// id has a code and a delta that wraps around decodes to a smaller id, which
// the list's order check rejects.
void write_id(serial::Writer& w, const agent::AgentId& id, std::uint64_t& prev) {
  const auto created = static_cast<std::uint64_t>(id.created_us);
  w.varint(created - prev);
  w.varint(id.origin);
  w.varint(id.seq);
  prev = created;
}

agent::AgentId read_id(serial::Reader& r, std::uint64_t& prev) {
  prev += r.varint();
  agent::AgentId id;
  id.created_us = static_cast<std::int64_t>(prev);
  id.origin = static_cast<net::NodeId>(r.varint());
  id.seq = static_cast<std::uint32_t>(r.varint());
  return id;
}

// An id is three varints: at least three bytes on the wire.
constexpr std::size_t kMinIdBytes = 3;

}  // namespace

void serialize_done_set(serial::Writer& w, const DoneSet& done) {
  w.varint(done.size());
  std::uint64_t prev = 0;
  for (const agent::AgentId& id : done) write_id(w, id, prev);
}

DoneSet deserialize_done_set(serial::Reader& r) {
  const std::uint64_t n = r.length_prefix(kMinIdBytes);
  DoneSet done;
  done.reserve(n);
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!done.push_back_ascending(read_id(r, prev))) {
      throw serial::MalformedError("UAL not strictly ascending");
    }
  }
  return done;
}

void strip_done(LockSnapshot& snapshot, const DoneSet& done) {
  if (done.empty()) return;
  std::erase_if(snapshot.agents,
                [&](const agent::AgentId& id) { return done.contains(id); });
}

void strip_done(GroupLockTable& table, const std::vector<agent::AgentId>& finished) {
  if (finished.empty()) return;
  for (auto& [group, servers] : table) {
    for (auto& [node, snapshot] : servers) {
      std::erase_if(snapshot.agents, [&](const agent::AgentId& id) {
        return std::binary_search(finished.begin(), finished.end(), id);
      });
    }
  }
}

std::map<agent::AgentId, std::uint32_t> top_counts(const LockTable& table,
                                                   const DoneSet& done,
                                                   const VoteWeights& votes) {
  std::vector<HeadTally> tally;
  tally_heads(table, done, votes, tally);
  std::map<agent::AgentId, std::uint32_t> counts;
  for (const HeadTally& t : tally) counts.emplace_hint(counts.end(), t.id, t.votes);
  return counts;
}

bool paper_tie_condition(std::uint32_t s, std::uint32_t m, std::size_t n) {
  // S + (N − M·S) < N/2, evaluated without integer truncation.
  const std::int64_t lhs =
      static_cast<std::int64_t>(s) +
      (static_cast<std::int64_t>(n) - static_cast<std::int64_t>(m) * s);
  return 2 * lhs < static_cast<std::int64_t>(n);
}

namespace {

// The SplitQuorum halves: ids below ⌈n/2⌉ and the rest.
quorum::NodeSet split_half(std::size_t n, bool upper) {
  const std::size_t cut = (n + 1) / 2;
  quorum::NodeSet half;
  for (std::size_t v = upper ? cut : 0; v < (upper ? n : cut); ++v) {
    half.push_back(static_cast<net::NodeId>(v));
  }
  return half;
}

// Geometry decision rule: coverage win, else optimistic tie-break once the
// known-head set spans a write quorum (see the decide() contract).
Decision decide_geometry(const LockTable& table, const DoneSet& done,
                         const agent::AgentId& self, TieBreakMode /*mode*/,
                         ProtocolMutant mutant,
                         const quorum::QuorumSystem& qs) {
  // One pass: (filtered head, server) per known list. The table iterates
  // servers ascending and the sort is stable, so each head's servers stay a
  // sorted NodeSet.
  std::vector<std::pair<agent::AgentId, net::NodeId>> heads;
  heads.reserve(table.size());
  quorum::NodeSet known;
  for (const auto& [node, snapshot] : table) {
    if (!snapshot.known()) continue;
    if (auto head = filtered_head(snapshot.agents, done)) {
      heads.emplace_back(*head, node);
      known.push_back(node);
    }
  }
  std::stable_sort(heads.begin(), heads.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<agent::AgentId, quorum::NodeSet>> head_sets;
  for (const auto& [id, node] : heads) {
    if (head_sets.empty() || head_sets.back().first != id) head_sets.push_back({id, {}});
    head_sets.back().second.push_back(node);
  }
  for (const auto& [id, nodes] : head_sets) {
    if (mutant_write_covered(qs, nodes, mutant)) {
      return {id == self ? Decision::Kind::Win : Decision::Kind::Lose, id};
    }
  }
  if (head_sets.empty() || !mutant_write_covered(qs, known, mutant)) return {};

  std::size_t max_count = 0;
  for (const auto& [id, nodes] : head_sets) {
    max_count = std::max(max_count, nodes.size());
  }
  std::vector<agent::AgentId> tied;
  for (const auto& [id, nodes] : head_sets) {
    if (nodes.size() == max_count) tied.push_back(id);
  }
  const agent::AgentId by_id = mutant == ProtocolMutant::TieBreakLargestId
                                   ? tied.back()
                                   : tied.front();
  return {by_id == self ? Decision::Kind::Win : Decision::Kind::Lose, by_id};
}

}  // namespace

bool mutant_write_covered(const quorum::QuorumSystem& qs,
                          const quorum::NodeSet& nodes, ProtocolMutant mutant) {
  if (mutant != ProtocolMutant::SplitQuorum) return qs.write_covered(nodes);
  for (const bool upper : {false, true}) {
    const quorum::NodeSet half = split_half(qs.size(), upper);
    if (std::includes(nodes.begin(), nodes.end(), half.begin(), half.end())) {
      return true;
    }
  }
  return false;
}

std::optional<quorum::NodeSet> mutant_pick_write_quorum(
    const quorum::QuorumSystem& qs, const quorum::NodeSet& excluded,
    net::NodeId prefer, ProtocolMutant mutant) {
  if (mutant != ProtocolMutant::SplitQuorum) {
    return qs.pick_write_quorum(excluded, prefer);
  }
  const std::size_t cut = (qs.size() + 1) / 2;
  const bool upper = prefer != net::kInvalidNode &&
                     static_cast<std::size_t>(prefer) < qs.size() &&
                     static_cast<std::size_t>(prefer) >= cut;
  quorum::NodeSet half = split_half(qs.size(), upper);
  std::erase_if(half, [&](net::NodeId v) { return quorum::contains(excluded, v); });
  if (half.empty()) return std::nullopt;
  return half;
}

Decision decide(const LockTable& table, const DoneSet& done,
                const agent::AgentId& self, std::size_t n_servers,
                TieBreakMode mode, const VoteWeights& votes,
                ProtocolMutant mutant, const quorum::QuorumSystem* quorum) {
  MARP_REQUIRE(n_servers >= 1);
  if (quorum != nullptr && quorum->geometry() != quorum::Geometry::Majority) {
    return decide_geometry(table, done, self, mode, mutant, *quorum);
  }
  // Reused across calls: decide() runs on every visit and lock-change
  // signal, and the tally is the only scratch space it needs.
  thread_local std::vector<HeadTally> counts;
  const std::size_t known_heads = tally_heads(table, done, votes, counts);
  const std::uint32_t all_votes = total_votes(votes, n_servers);

  // Majority rule: heading lists worth more than half the votes wins.
  // The MajorityOffByOne mutant lowers the bar to ⌈(V−1)/2⌉ — with three
  // one-vote servers a single list head "wins" (checker must catch this).
  for (const HeadTally& t : counts) {
    const bool wins = mutant == ProtocolMutant::MajorityOffByOne
                          ? 2 * t.votes >= all_votes - 1
                          : 2 * t.votes > all_votes;
    if (wins) {
      return {t.id == self ? Decision::Kind::Win : Decision::Kind::Lose, t.id};
    }
  }

  // Tie handling needs the head of every list to be known and non-empty.
  if (known_heads < n_servers || counts.empty()) return {};

  std::uint32_t max_count = 0;
  std::size_t tied = 0;
  for (const HeadTally& t : counts) max_count = std::max(max_count, t.votes);
  const HeadTally* first = nullptr;
  const HeadTally* last = nullptr;
  for (const HeadTally& t : counts) {
    if (t.votes != max_count) continue;
    if (first == nullptr) first = &t;
    last = &t;
    ++tied;
  }
  // The tally is ascending by id, so the winner by identifier is the first
  // maximal head (Theorem 2's deterministic rule). The TieBreakLargestId
  // mutant takes the last instead.
  const agent::AgentId by_id =
      mutant == ProtocolMutant::TieBreakLargestId ? last->id : first->id;

  switch (mode) {
    case TieBreakMode::PaperLiteral:
      // With weights, S and N are measured in votes rather than servers.
      if (!paper_tie_condition(max_count, static_cast<std::uint32_t>(tied),
                               all_votes)) {
        return {};  // paper says "further processing is possible" — keep going
      }
      break;
    case TieBreakMode::TotalOrder:
      break;  // always resolvable with full information
  }
  return {by_id == self ? Decision::Kind::Win : Decision::Kind::Lose, by_id};
}

std::vector<agent::AgentId> predicted_order(const LockTable& table,
                                            const DoneSet& done,
                                            std::size_t n_servers,
                                            const VoteWeights& votes,
                                            std::size_t limit) {
  std::vector<agent::AgentId> order;
  DoneSet simulated = done;
  std::vector<HeadTally> counts;
  for (;;) {
    if (limit != 0 && order.size() >= limit) break;
    // The next winner under TotalOrder, with everyone ranked so far
    // treated as committed (their queue entries logically removed).
    const std::size_t known_heads = tally_heads(table, simulated, votes, counts);
    if (counts.empty()) break;
    const std::uint32_t all_votes = total_votes(votes, n_servers);
    std::optional<agent::AgentId> winner;
    std::uint32_t best_count = 0;
    for (const HeadTally& t : counts) {
      if (2 * t.votes > all_votes) {
        winner = t.id;
        break;
      }
      if (t.votes > best_count) best_count = t.votes;
    }
    if (!winner) {
      // Tie path needs every head known; otherwise the prediction stops.
      if (known_heads < n_servers) break;
      for (const HeadTally& t : counts) {  // ascending id: first max wins
        if (t.votes == best_count) {
          winner = t.id;
          break;
        }
      }
    }
    if (!winner) break;
    order.push_back(*winner);
    simulated.insert(*winner);
  }
  return order;
}

void merge_lock_tables(LockTable& table, const LockTable& incoming,
                       const DoneSet* strip) {
  table.merge(
      incoming, [](const LockSnapshot& theirs) { return theirs.known(); },
      [strip](LockSnapshot& mine, const LockSnapshot& theirs) {
        if (theirs.observed_us <= mine.observed_us) return;
        if (strip == nullptr) {
          mine = theirs;
          return;
        }
        mine.observed_us = theirs.observed_us;
        mine.agents.clear();
        for (const agent::AgentId& id : theirs.agents) {
          if (!strip->contains(id)) mine.agents.push_back(id);
        }
      });
}

void merge_group_lock_tables(GroupLockTable& table, const GroupLockTable& incoming) {
  for (const auto& [group, tables] : incoming) {
    merge_lock_tables(table[group], tables);
  }
}

namespace {

/// Builds the agent dictionary of one table encoding: every snapshot entry
/// is given the slot of its id on a first pass, then the distinct ids are
/// sorted and each entry is written as the rank of its slot. Tables repeat a
/// handful of competing agents across every server's snapshot, so an id is
/// found by a linear scan of the few distinct ids seen so far; only a
/// dictionary past kLinearLimit ids gets a hash probe table. One instance
/// per thread keeps its buffers across frames.
class DictionaryEncoder {
 public:
  void reset() {
    ids_.clear();
    slots_.clear();
    probe_.clear();
    next_ = 0;
  }

  void add(const LockSnapshot& snapshot) {
    for (const agent::AgentId& id : snapshot.agents) slots_.push_back(slot_of(id));
  }

  /// The distinct ids, ascending; fixes every slot's rank.
  void write_dictionary(serial::Writer& w) {
    order_.resize(ids_.size());
    for (std::uint32_t k = 0; k < order_.size(); ++k) order_[k] = k;
    std::sort(order_.begin(), order_.end(),
              [this](std::uint32_t a, std::uint32_t b) { return ids_[a] < ids_[b]; });
    rank_.resize(ids_.size());
    w.varint(order_.size());
    std::uint64_t prev = 0;
    for (std::uint32_t k = 0; k < order_.size(); ++k) {
      rank_[order_[k]] = k;
      write_id(w, ids_[order_[k]], prev);
    }
  }

  /// The next snapshot in add() order, coded against the dictionary.
  void write_snapshot(serial::Writer& w, const LockSnapshot& snapshot) {
    w.varint(snapshot.agents.size());
    for (std::size_t k = 0; k < snapshot.agents.size(); ++k) {
      w.varint(rank_[slots_[next_++]]);
    }
    w.svarint(snapshot.observed_us);
  }

 private:
  static constexpr std::size_t kLinearLimit = 4;

  std::uint32_t slot_of(const agent::AgentId& id) {
    if (probe_.empty()) {
      for (std::size_t k = 0; k < ids_.size(); ++k) {
        if (ids_[k] == id) return static_cast<std::uint32_t>(k);
      }
      ids_.push_back(id);
      if (ids_.size() > kLinearLimit) rebuild_probe();
      return static_cast<std::uint32_t>(ids_.size() - 1);
    }
    const std::size_t mask = probe_.size() - 1;
    for (std::size_t h = agent::AgentIdHash{}(id) & mask;; h = (h + 1) & mask) {
      if (probe_[h] == 0) {
        ids_.push_back(id);
        probe_[h] = static_cast<std::uint32_t>(ids_.size());
        if (2 * ids_.size() > probe_.size()) rebuild_probe();
        return static_cast<std::uint32_t>(ids_.size() - 1);
      }
      if (ids_[probe_[h] - 1] == id) return probe_[h] - 1;
    }
  }

  /// Open addressing, kept at most half full; a cell holds slot + 1
  /// (0 = empty).
  void rebuild_probe() {
    std::size_t size = 64;
    while (size < 2 * ids_.size()) size *= 2;
    probe_.assign(size, 0);
    const std::size_t mask = size - 1;
    for (std::size_t k = 0; k < ids_.size(); ++k) {
      std::size_t h = agent::AgentIdHash{}(ids_[k]) & mask;
      while (probe_[h] != 0) h = (h + 1) & mask;
      probe_[h] = static_cast<std::uint32_t>(k + 1);
    }
  }

  std::vector<agent::AgentId> ids_;    ///< distinct ids, first-seen order
  std::vector<std::uint32_t> slots_;   ///< per snapshot entry, its id's slot
  std::vector<std::uint32_t> order_;   ///< slots by ascending id
  std::vector<std::uint32_t> rank_;    ///< slot -> dictionary index
  std::vector<std::uint32_t> probe_;
  std::size_t next_ = 0;
};

DictionaryEncoder& dictionary_encoder() {
  thread_local DictionaryEncoder encoder;
  return encoder;
}

void write_servers(serial::Writer& w, const LockTable& table, DictionaryEncoder& dict) {
  w.varint(table.size());
  for (const auto& [node, snapshot] : table) {
    w.varint(node);
    dict.write_snapshot(w, snapshot);
  }
}

std::vector<agent::AgentId> read_dictionary(serial::Reader& r) {
  const std::uint64_t n = r.length_prefix(kMinIdBytes);
  std::vector<agent::AgentId> dict;
  dict.reserve(n);
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    const agent::AgentId id = read_id(r, prev);
    if (!dict.empty() && !(dict.back() < id)) {
      throw serial::MalformedError("agent dictionary not strictly ascending");
    }
    dict.push_back(id);
  }
  return dict;
}

LockTable read_servers(serial::Reader& r, const std::vector<agent::AgentId>& dict) {
  // A server id, an agent count and a timestamp: at least three bytes each.
  const std::uint64_t n = r.length_prefix(3);
  LockTable table;
  table.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto node = static_cast<net::NodeId>(r.varint());
    LockSnapshot snapshot;
    const std::uint64_t count = r.length_prefix(1);
    snapshot.agents.reserve(count);
    for (std::uint64_t k = 0; k < count; ++k) {
      const std::uint64_t index = r.varint();
      if (index >= dict.size()) {
        throw serial::MalformedError("agent index outside the dictionary");
      }
      snapshot.agents.push_back(dict[index]);
    }
    snapshot.observed_us = r.svarint();
    if (!table.push_back_ascending(node, std::move(snapshot))) {
      throw serial::MalformedError("Locking Table servers not strictly ascending");
    }
  }
  return table;
}

}  // namespace

void serialize_lock_table(serial::Writer& w, const LockTable& table) {
  DictionaryEncoder& dict = dictionary_encoder();
  dict.reset();
  for (const auto& [node, snapshot] : table) dict.add(snapshot);
  dict.write_dictionary(w);
  write_servers(w, table, dict);
}

LockTable deserialize_lock_table(serial::Reader& r) {
  const std::vector<agent::AgentId> dict = read_dictionary(r);
  return read_servers(r, dict);
}

void serialize_group_lock_table(serial::Writer& w, const GroupLockTable& table) {
  DictionaryEncoder& dict = dictionary_encoder();
  dict.reset();
  for (const auto& [group, servers] : table) {
    for (const auto& [node, snapshot] : servers) dict.add(snapshot);
  }
  dict.write_dictionary(w);
  w.varint(table.size());
  for (const auto& [group, servers] : table) {
    w.varint(group);
    write_servers(w, servers, dict);
  }
}

GroupLockTable deserialize_group_lock_table(serial::Reader& r) {
  const std::vector<agent::AgentId> dict = read_dictionary(r);
  // A group id and an (empty) table's count: at least two bytes each.
  const std::uint64_t n = r.length_prefix(2);
  GroupLockTable table;
  table.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto group = static_cast<shard::GroupId>(r.varint());
    if (!table.push_back_ascending(group, read_servers(r, dict))) {
      throw serial::MalformedError("Locking Table groups not strictly ascending");
    }
  }
  return table;
}

}  // namespace marp::core
