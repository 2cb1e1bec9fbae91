// Locking List (LL) and Updated List (UL) — the per-server data structures
// of §3.2.
//
// The LL is an arrival-ordered queue of agents requesting the update lock at
// this server; an agent wins the global lock when it heads the LLs of a
// majority of servers. The UL records agents that have already completed
// their updates; agents merge ULs into their Updated Agents List as gossip.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "agent/agent_id.hpp"
#include "sim/time.hpp"

namespace marp::replica {

class LockingList {
 public:
  struct Entry {
    agent::AgentId agent;
    sim::SimTime enqueued;
  };

  /// Append a lock request; returns false (no-op) if already present.
  bool append(const agent::AgentId& agent, sim::SimTime now);

  /// Remove an agent's entry wherever it is; true if something was removed.
  bool remove(const agent::AgentId& agent);

  /// Agent currently at the head (holds this server's local rank 1).
  std::optional<agent::AgentId> head() const;

  /// 0-based position of an agent, or nullopt.
  std::optional<std::size_t> position(const agent::AgentId& agent) const;

  bool contains(const agent::AgentId& agent) const { return position(agent).has_value(); }
  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }

  /// Queue order snapshot — what a visiting agent copies into its LT.
  std::vector<agent::AgentId> snapshot() const;

  void serialize(serial::Writer& w) const;
  static LockingList deserialize(serial::Reader& r);

 private:
  /// Arrival order. A vector, not a deque: every server keeps one list per
  /// lock group, most of them empty, and an empty deque still allocates.
  std::vector<Entry> entries_;
};

class UpdatedList {
 public:
  /// The entries ascending by id, read through the sorted index: what a
  /// visiting agent folds into its UAL with one linear merge. A view into
  /// the list, valid until the list next changes.
  class SortedView {
   public:
    SortedView() = default;
    std::size_t size() const noexcept { return index_ == nullptr ? 0 : index_->size(); }
    bool empty() const noexcept { return size() == 0; }
    const agent::AgentId& operator[](std::size_t k) const { return (*slots_)[(*index_)[k]]; }

   private:
    friend class UpdatedList;
    SortedView(const std::vector<agent::AgentId>& slots,
               const std::vector<std::uint32_t>& index)
        : slots_(&slots), index_(&index) {}
    const std::vector<agent::AgentId>* slots_ = nullptr;
    const std::vector<std::uint32_t>* index_ = nullptr;
  };

  /// Record a completed update; keeps at most `capacity` recent entries.
  explicit UpdatedList(std::size_t capacity = 256);

  void add(const agent::AgentId& agent);
  /// O(log n): a binary search of the sorted index.
  bool contains(const agent::AgentId& agent) const;
  std::size_t size() const noexcept { return slots_.size(); }

  /// Merge another list's contents into this one (gossip).
  void merge(const std::vector<agent::AgentId>& other);

  /// Entries oldest first (the eviction order).
  std::vector<agent::AgentId> snapshot() const;

  SortedView sorted() const noexcept { return {slots_, index_}; }

 private:
  /// First index_ position whose entry is not below `agent`.
  std::vector<std::uint32_t>::const_iterator lower_bound(const agent::AgentId& agent) const;

  /// Entries in a ring: appended until the list is full, then each new
  /// entry overwrites the oldest, at `oldest_`. Slots never move, so the
  /// sorted index can name them by position.
  std::vector<agent::AgentId> slots_;
  std::size_t oldest_ = 0;
  /// Slot numbers ordered by the id they hold: O(log n) membership and an
  /// ascending walk without a second copy of the ids (a flat index of 4-byte
  /// positions, not a node-based set, so the list stays two compact arrays).
  std::vector<std::uint32_t> index_;
  std::size_t capacity_;
};

}  // namespace marp::replica
