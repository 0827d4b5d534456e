// A sorted map in one contiguous vector: the (key, value) pairs sit in
// key order, and iteration is in key order like std::map's. It is meant
// for small maps that are read far more often than written: one
// allocation per map instead of one node per entry, and a lookup that
// stays in a few cache lines (a scan of a small map, a binary search of
// a large one; inserts binary-search for their place).
//
// The difference from std::map that callers must keep in mind: an
// insert or erase moves the elements after it, so it invalidates every
// iterator, pointer and reference into the map — hold a key, not a
// reference, across a write to the same map.
//
// Lookups take any key type that compares with K (e.g. a
// std::string_view or a literal for std::string keys), so callers do
// not build a temporary key to search.
#pragma once

#include <algorithm>
#include <cstddef>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.h"

namespace kd {

template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  iterator begin() { return items_.begin(); }
  iterator end() { return items_.end(); }
  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  void clear() { items_.clear(); }
  void reserve(std::size_t n) { items_.reserve(n); }

  template <typename Q>
  iterator find(const Q& key) {
    if (items_.size() <= kLinearFind) {
      for (auto it = items_.begin(); it != items_.end(); ++it) {
        if (it->first == key) return it;
      }
      return items_.end();
    }
    auto it = LowerBound(key);
    return it != items_.end() && it->first == key ? it : items_.end();
  }
  template <typename Q>
  const_iterator find(const Q& key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }
  template <typename Q>
  bool contains(const Q& key) const {
    return find(key) != end();
  }
  template <typename Q>
  std::size_t count(const Q& key) const {
    return contains(key) ? 1 : 0;
  }
  // The value under `key`, which must be present.
  template <typename Q>
  const V& at(const Q& key) const {
    auto it = find(key);
    KD_CHECK(it != end(), "FlatMap::at of a missing key");
    return it->second;
  }

  // Inserts (key, V(args...)) unless `key` is present; like
  // std::map::emplace, an existing value is kept.
  template <typename Q, typename... Args>
  std::pair<iterator, bool> emplace(Q&& key, Args&&... args) {
    // Keys mostly arrive in order (parsing sorted JSON, building a
    // message field by field), so a key past the last one skips the
    // search.
    auto it = items_.empty() || items_.back().first < key ? items_.end()
                                                          : LowerBound(key);
    if (it != items_.end() && it->first == key) return {it, false};
    it = items_.emplace(it, std::piecewise_construct,
                        std::forward_as_tuple(std::forward<Q>(key)),
                        std::forward_as_tuple(std::forward<Args>(args)...));
    return {it, true};
  }
  // The value under `key`, default-constructed first if absent.
  template <typename Q>
  V& operator[](Q&& key) {
    return emplace(std::forward<Q>(key)).first->second;
  }

  template <typename Q>
  std::size_t erase(const Q& key) {
    auto it = find(key);
    if (it == items_.end()) return 0;
    items_.erase(it);
    return 1;
  }

  bool operator==(const FlatMap& other) const {
    return items_ == other.items_;
  }

 private:
  // Up to this many keys, find() scans for an equal key instead of
  // binary-searching: comparing sizes first rejects most keys without
  // reading their bytes, and API-object sections hold 2 to 15 keys. On
  // a pod's field getters the scan took half the time of the search.
  static constexpr std::size_t kLinearFind = 16;

  // First element not ordered before `key`.
  template <typename Q>
  iterator LowerBound(const Q& key) {
    return std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const value_type& item, const Q& k) { return item.first < k; });
  }

  std::vector<value_type> items_;
};

}  // namespace kd
