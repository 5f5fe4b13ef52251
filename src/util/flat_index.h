// FlatIndex: an open-addressing hash index from uint64 keys to 32-bit
// arena node indexes — the replacement for the per-queue
// std::unordered_map<uint64_t, Locator>.
//
// Linear probing over two parallel flat arrays (keys, values), power-of-two
// slot counts, Mix64 avalanche hashing, and backward-shift deletion (no
// tombstones, so probe lengths never degrade under churn). A slot is empty
// iff its value is kNotFound — node indexes never take that value because
// the arena reserves it as kNullNode. At the default max load factor of
// 0.7 a lookup touches ~1–2 consecutive cache lines; the map equivalent
// chases at least two cold pointers (bucket, node).
//
// Capacity hints (`Reserve`) size the table up front from the queue's
// reservation so a replay never rehashes mid-stream; without a hint the
// table doubles geometrically, never per item.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/hashing.h"

namespace cliffhanger {

class FlatIndex {
 public:
  static constexpr uint32_t kNotFound = UINT32_MAX;
  // Per-slot footprint of the parallel arrays (key + value), exported for
  // the shadow-queue memory-overhead accounting (§5.7).
  static constexpr size_t kSlotBytes = sizeof(uint64_t) + sizeof(uint32_t);

  explicit FlatIndex(size_t expected_entries = 0) {
    Rehash(SlotCountFor(expected_entries));
  }

  [[nodiscard]] uint32_t Find(uint64_t key) const {
    size_t i = Mix64(key) & mask_;
    while (values_[i] != kNotFound) {
      if (keys_[i] == key) return values_[i];
      i = (i + 1) & mask_;
    }
    return kNotFound;
  }

  [[nodiscard]] bool Contains(uint64_t key) const {
    return Find(key) != kNotFound;
  }

  // `key` must be absent; `value` must not be kNotFound.
  void Insert(uint64_t key, uint32_t value) {
    assert(value != kNotFound);
    if ((size_ + 1) * 10 > (mask_ + 1) * 7) Rehash((mask_ + 1) * 2);
    size_t i = Mix64(key) & mask_;
    while (values_[i] != kNotFound) {
      assert(keys_[i] != key);
      i = (i + 1) & mask_;
    }
    keys_[i] = key;
    values_[i] = value;
    ++size_;
  }

  // Overwrite the value stored for `key`; returns false when absent.
  // `value` must not be kNotFound.
  bool Replace(uint64_t key, uint32_t value) {
    assert(value != kNotFound);
    size_t i = Mix64(key) & mask_;
    while (values_[i] != kNotFound) {
      if (keys_[i] == key) {
        values_[i] = value;
        return true;
      }
      i = (i + 1) & mask_;
    }
    return false;
  }

  // Remove `key`; returns false when absent. Backward-shift deletion: the
  // vacated slot is refilled with any displaced successor in the probe run,
  // so no tombstones accumulate.
  bool Erase(uint64_t key) {
    size_t i = Mix64(key) & mask_;
    while (values_[i] != kNotFound && keys_[i] != key) {
      i = (i + 1) & mask_;
    }
    if (values_[i] == kNotFound) return false;
    size_t hole = i;
    size_t j = i;
    for (;;) {
      j = (j + 1) & mask_;
      if (values_[j] == kNotFound) break;
      const size_t home = Mix64(keys_[j]) & mask_;
      // j's element may fill the hole iff the hole lies within its probe
      // run, i.e. cyclically between home and j.
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        keys_[hole] = keys_[j];
        values_[hole] = values_[j];
        hole = j;
      }
    }
    values_[hole] = kNotFound;
    --size_;
    return true;
  }

  // Capacity hint for `n` live entries; grows only (never shrinks).
  void Reserve(size_t n) {
    const size_t target = SlotCountFor(n);
    if (target > mask_ + 1) Rehash(target);
  }

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] size_t slot_count() const { return mask_ + 1; }

  // Visit every (key, value) pair; order is unspecified.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i <= mask_; ++i) {
      if (values_[i] != kNotFound) fn(keys_[i], values_[i]);
    }
  }

 private:
  // Smallest power-of-two slot count holding `n` entries at <= 0.7 load.
  [[nodiscard]] static size_t SlotCountFor(size_t n) {
    size_t slots = 16;
    while (slots * 7 < n * 10) slots *= 2;
    return slots;
  }

  void Rehash(size_t new_slots) {
    assert((new_slots & (new_slots - 1)) == 0);
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<uint32_t> old_values = std::move(values_);
    keys_.assign(new_slots, 0);
    values_.assign(new_slots, kNotFound);
    mask_ = new_slots - 1;
    for (size_t i = 0; i < old_values.size(); ++i) {
      if (old_values[i] == kNotFound) continue;
      size_t j = Mix64(old_keys[i]) & mask_;
      while (values_[j] != kNotFound) j = (j + 1) & mask_;
      keys_[j] = old_keys[i];
      values_[j] = old_values[i];
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<uint32_t> values_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace cliffhanger
