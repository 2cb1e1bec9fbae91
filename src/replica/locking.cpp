#include "replica/locking.hpp"

#include <limits>

#include "util/assert.hpp"

namespace marp::replica {

bool LockingList::append(const agent::AgentId& agent, sim::SimTime now) {
  if (contains(agent)) return false;
  entries_.push_back({agent, now});
  return true;
}

bool LockingList::remove(const agent::AgentId& agent) {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&](const Entry& e) { return e.agent == agent; });
  if (it == entries_.end()) return false;
  entries_.erase(it);
  return true;
}

std::optional<agent::AgentId> LockingList::head() const {
  if (entries_.empty()) return std::nullopt;
  return entries_.front().agent;
}

std::optional<std::size_t> LockingList::position(const agent::AgentId& agent) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].agent == agent) return i;
  }
  return std::nullopt;
}

std::vector<agent::AgentId> LockingList::snapshot() const {
  std::vector<agent::AgentId> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.agent);
  return out;
}

void LockingList::serialize(serial::Writer& w) const {
  w.varint(entries_.size());
  for (const Entry& e : entries_) {
    e.agent.serialize(w);
    w.svarint(e.enqueued.as_micros());
  }
}

LockingList LockingList::deserialize(serial::Reader& r) {
  LockingList list;
  const std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    agent::AgentId id = agent::AgentId::deserialize(r);
    sim::SimTime t = sim::SimTime::micros(r.svarint());
    list.entries_.push_back({id, t});
  }
  return list;
}

UpdatedList::UpdatedList(std::size_t capacity) : capacity_(capacity) {
  MARP_REQUIRE(capacity <= std::numeric_limits<std::uint32_t>::max());
}

std::vector<std::uint32_t>::const_iterator UpdatedList::lower_bound(
    const agent::AgentId& agent) const {
  return std::lower_bound(index_.begin(), index_.end(), agent,
                          [this](std::uint32_t slot, const agent::AgentId& id) {
                            return slots_[slot] < id;
                          });
}

bool UpdatedList::contains(const agent::AgentId& agent) const {
  const auto it = lower_bound(agent);
  return it != index_.end() && slots_[*it] == agent;
}

void UpdatedList::add(const agent::AgentId& agent) {
  if (capacity_ == 0 || contains(agent)) return;
  std::uint32_t slot;
  if (slots_.size() < capacity_) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(agent);
  } else {
    // Full: the oldest entry leaves the index and its slot takes the new one.
    slot = static_cast<std::uint32_t>(oldest_);
    index_.erase(lower_bound(slots_[slot]));
    slots_[slot] = agent;
    oldest_ = (oldest_ + 1) % capacity_;
  }
  index_.insert(lower_bound(agent), slot);
}

void UpdatedList::merge(const std::vector<agent::AgentId>& other) {
  for (const auto& id : other) add(id);
}

std::vector<agent::AgentId> UpdatedList::snapshot() const {
  std::vector<agent::AgentId> out;
  out.reserve(slots_.size());
  for (std::size_t k = 0; k < slots_.size(); ++k) {
    out.push_back(slots_[(oldest_ + k) % slots_.size()]);
  }
  return out;
}

}  // namespace marp::replica
