// The request model shared by generators, the simulator and the caches.
#pragma once

#include <cstdint>

namespace cliffhanger {

// The full memcached-shaped op set. The simulator maps the value-level
// verbs onto the residency core: kCas/kAppend/kPrepend are stores at the
// request's (new) value_size, kIncr/kDecr are same-size rewrites (a Touch
// at the core: recency moves, no statistics), kTouch refreshes expiry.
enum class Op : uint8_t {
  kGet,
  kSet,
  kDelete,
  kTouch,
  kIncr,
  kDecr,
  kCas,
  kAppend,
  kPrepend,
};

// One cache operation. Keys are opaque 64-bit ids (generators namespace them
// per app/class via hashing); key_size/value_size carry the byte sizes used
// for slab-class selection and memory accounting. time_us is virtual time —
// it doubles as the expiry clock: the simulator derives now_s = time_us/1e6
// for lazy TTL evaluation, so a TTL-bearing trace replays deterministically.
struct Request {
  uint64_t key = 0;
  uint64_t time_us = 0;
  uint32_t app_id = 0;
  uint32_t key_size = 16;
  uint32_t value_size = 0;
  uint32_t expiry_s = 0;  // absolute expiry second stored on fill; 0 = never
  Op op = Op::kGet;

  [[nodiscard]] bool is_get() const { return op == Op::kGet; }
};

}  // namespace cliffhanger
