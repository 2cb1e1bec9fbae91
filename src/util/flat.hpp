// Flat sorted containers: a std::vector kept in ascending key order.
//
// The agent state on the MARP hot path (the UAL and the Locking Tables) is
// small, read far more often than it is written, merged from already-sorted
// sources, and serialized in key order on every migration. A contiguous
// sorted vector serves all four better than a node-based tree: lookups are a
// cache-friendly binary search, merges of ascending inputs are linear, and
// iteration order is the wire order, so the encoded bytes are exactly those
// of the std::set/std::map it replaces.
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <utility>
#include <vector>

namespace marp::util {

/// Sorted, duplicate-free set of `T` (needs `<` and `==`).
template <typename T>
class FlatSet {
 public:
  using value_type = T;
  using const_iterator = typename std::vector<T>::const_iterator;

  FlatSet() = default;
  FlatSet(std::initializer_list<T> items) : items_(items) { normalize(); }
  /// Any order, duplicates allowed: sorted and deduplicated here.
  explicit FlatSet(std::vector<T> items) : items_(std::move(items)) { normalize(); }

  const_iterator begin() const noexcept { return items_.begin(); }
  const_iterator end() const noexcept { return items_.end(); }
  std::size_t size() const noexcept { return items_.size(); }
  bool empty() const noexcept { return items_.empty(); }
  void clear() noexcept { items_.clear(); }
  void reserve(std::size_t n) { items_.reserve(n); }

  bool contains(const T& value) const {
    return std::binary_search(items_.begin(), items_.end(), value);
  }

  /// Insert `value`; false if it was already present.
  bool insert(const T& value) {
    const auto it = std::lower_bound(items_.begin(), items_.end(), value);
    if (it != items_.end() && *it == value) return false;
    items_.insert(it, value);
    return true;
  }

  /// Append `value` as the new largest element; false (and no change) if it
  /// is not strictly greater than the current last one. Decoders use this to
  /// rebuild a set from its ascending wire form and reject any other order.
  bool push_back_ascending(const T& value) {
    if (!items_.empty() && !(items_.back() < value)) return false;
    items_.push_back(value);
    return true;
  }

  /// Union with a strictly ascending sequence `in` (anything with size()
  /// and operator[]). Elements already present are found by a forward-only
  /// binary search; only if some are new does the set grow, by one backward
  /// merge in place (no temporary buffer). When `added` is given, the
  /// elements that were new are appended to it, ascending.
  template <typename Seq>
  void merge_ascending(const Seq& in, std::vector<T>* added = nullptr) {
    std::size_t missing = 0;
    auto pos = items_.begin();
    for (std::size_t k = 0; k < in.size(); ++k) {
      pos = std::lower_bound(pos, items_.end(), in[k]);
      if (pos == items_.end() || !(*pos == in[k])) {
        ++missing;
        if (added != nullptr) added->push_back(in[k]);
      }
    }
    if (missing == 0) return;
    const std::size_t old_size = items_.size();
    items_.resize(old_size + missing);
    // Fill from the back: `w` is the next free slot, `i` the next old
    // element, `j` walks `in` downwards. Once every missing element is
    // placed (w == i) the rest is already in position.
    std::size_t w = old_size + missing;
    std::size_t i = old_size;
    std::size_t j = in.size();
    while (w > i) {
      const T& next = in[j - 1];
      if (i > 0 && next < items_[i - 1]) {
        items_[--w] = std::move(items_[--i]);
      } else if (i > 0 && next == items_[i - 1]) {
        --j;  // already present; the old copy moves down in a later step
      } else {
        items_[--w] = next;
        --j;
      }
    }
  }

  friend bool operator==(const FlatSet&, const FlatSet&) = default;

 private:
  void normalize() {
    std::sort(items_.begin(), items_.end());
    items_.erase(std::unique(items_.begin(), items_.end()), items_.end());
  }

  std::vector<T> items_;
};

/// Sorted, unique-key map from `K` to `V` with the subset of the std::map
/// interface the protocol uses: find/end, operator[], at, contains,
/// emplace, and range-for with structured bindings over (key, value) pairs.
/// Keys are mutable through iterators only in the sense that pairs are;
/// callers must not change a key in place.
template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  iterator begin() noexcept { return items_.begin(); }
  iterator end() noexcept { return items_.end(); }
  const_iterator begin() const noexcept { return items_.begin(); }
  const_iterator end() const noexcept { return items_.end(); }
  std::size_t size() const noexcept { return items_.size(); }
  bool empty() const noexcept { return items_.empty(); }
  void clear() noexcept { items_.clear(); }
  void reserve(std::size_t n) { items_.reserve(n); }

  iterator lower_bound(const K& key) {
    return std::lower_bound(items_.begin(), items_.end(), key, key_less);
  }
  const_iterator lower_bound(const K& key) const {
    return std::lower_bound(items_.begin(), items_.end(), key, key_less);
  }

  iterator find(const K& key) {
    const auto it = lower_bound(key);
    return it != items_.end() && it->first == key ? it : items_.end();
  }
  const_iterator find(const K& key) const {
    const auto it = lower_bound(key);
    return it != items_.end() && it->first == key ? it : items_.end();
  }
  bool contains(const K& key) const { return find(key) != items_.end(); }

  V& at(const K& key) {
    const auto it = find(key);
    if (it == items_.end()) throw std::out_of_range("FlatMap::at: no such key");
    return it->second;
  }
  const V& at(const K& key) const {
    const auto it = find(key);
    if (it == items_.end()) throw std::out_of_range("FlatMap::at: no such key");
    return it->second;
  }

  /// Value for `key`, value-initialised and inserted if absent. Like any
  /// insertion it may invalidate references to other entries.
  V& operator[](const K& key) {
    auto it = lower_bound(key);
    if (it == items_.end() || !(it->first == key)) {
      it = items_.emplace(it, key, V{});
    }
    return it->second;
  }

  /// Insert (key, value) if `key` is absent; like std::map::emplace, an
  /// existing entry is left untouched and reported with `false`.
  template <typename VV>
  std::pair<iterator, bool> emplace(const K& key, VV&& value) {
    auto it = lower_bound(key);
    if (it != items_.end() && it->first == key) return {it, false};
    return {items_.emplace(it, key, std::forward<VV>(value)), true};
  }

  /// Append (key, value) as the new largest key; false (and no change) if
  /// `key` is not strictly greater than the current last key. Decoders use
  /// this to rebuild a map from its ascending wire form.
  bool push_back_ascending(const K& key, V&& value) {
    if (!items_.empty() && !(items_.back().first < key)) return false;
    items_.emplace_back(key, std::move(value));
    return true;
  }

  /// Linear merge of another map: entries of `other` that pass `keep` are
  /// offered to `update(mine, theirs)`, where `mine` is the existing value
  /// or, for a key not here yet, a value-initialised one inserted for it.
  /// New keys are placed by one backward merge in place, after the existing
  /// keys have been updated.
  template <typename Keep, typename Update>
  void merge(const FlatMap& other, Keep&& keep, Update&& update) {
    std::size_t missing = 0;
    auto pos = items_.begin();
    for (const value_type& theirs : other.items_) {
      if (!keep(theirs.second)) continue;
      while (pos != items_.end() && pos->first < theirs.first) ++pos;
      if (pos != items_.end() && pos->first == theirs.first) {
        update(pos->second, theirs.second);
      } else {
        ++missing;
      }
    }
    if (missing == 0) return;
    const std::size_t old_size = items_.size();
    items_.resize(old_size + missing);
    std::size_t w = old_size + missing;
    std::size_t i = old_size;
    std::size_t j = other.items_.size();
    while (w > i) {  // as in FlatSet::merge_ascending
      const value_type& theirs = other.items_[j - 1];
      if (!keep(theirs.second)) {
        --j;
      } else if (i > 0 && theirs.first < items_[i - 1].first) {
        items_[--w] = std::move(items_[--i]);
      } else if (i > 0 && theirs.first == items_[i - 1].first) {
        --j;  // already updated in the first pass
      } else {
        items_[--w] = value_type{theirs.first, V{}};
        update(items_[w].second, theirs.second);
        --j;
      }
    }
  }

 private:
  static bool key_less(const value_type& item, const K& key) { return item.first < key; }

  std::vector<value_type> items_;
};

}  // namespace marp::util
