#include "core/cache_server.h"

#include <algorithm>
#include <cassert>

#include "cache/arc_queue.h"
#include "cache/global_log_queue.h"
#include "cache/slab_class_queue.h"
#include "util/hashing.h"

namespace cliffhanger {

namespace {

// Cap on the cliff-aware gradient amplification fed to the cross-app
// climber. When the class a hill-shadow hit came from sits on a cliff, the
// raw shadow hit rate samples the depressed gradient at the cliff edges
// while the app actually operates on the concave hull, whose slope across
// the cliff is steeper; the per-hit credit is scaled by
// 1 + (right_ptr - left_ptr) / operating_point, clamped to this cap, so
// on-cliff apps are not starved by the very cliffs the scaler bridges.
constexpr double kMaxCrossAppGradientWeight = 8.0;

// Credit clamp (HillClimberConfig::max_credit_quanta) for the cross-app
// climber: bounds the transfer burst a tenant can unleash after its donors
// unfloor. The within-app climber keeps `climber.max_credit_quanta`
// (default unbounded — the paper-replay goldens pin those dynamics).
constexpr uint64_t kCrossAppMaxCreditQuanta = 4;

}  // namespace

// --- AppCache internals ---

struct AppCache::ClassEntry {
  int slab_class = 0;
  std::unique_ptr<ClassQueue> queue;
  // Non-null only for the LRU/midpoint slab queue (shadow-capable).
  PartitionedSlabQueue* partitioned = nullptr;
  std::unique_ptr<CliffScaler> scaler;
  std::unique_ptr<ClassAdapter> adapter;
  size_t climber_index = 0;
  ClassStats stats;
};

// Climber control surface for one slab-class queue: resizing also informs
// the class's cliff scaler so it can re-derive its partition.
class AppCache::ClassAdapter final : public ClimbableQueue {
 public:
  ClassAdapter(ClassEntry* entry, uint64_t min_bytes)
      : entry_(entry), min_bytes_(min_bytes) {}

  [[nodiscard]] uint64_t capacity_bytes() const override {
    return entry_->queue->capacity_bytes();
  }
  void SetCapacityBytes(uint64_t bytes) override {
    entry_->queue->SetCapacityBytes(bytes);
    if (entry_->scaler) entry_->scaler->OnCapacityChanged();
  }
  [[nodiscard]] uint64_t min_capacity_bytes() const override {
    return min_bytes_;
  }

 private:
  ClassEntry* entry_;
  uint64_t min_bytes_;
};

AppCache::AppCache(uint32_t app_id, uint64_t reservation,
                   const ServerConfig& config, CacheServer* server)
    : app_id_(app_id),
      reservation_(reservation),
      registered_bytes_(reservation),
      free_bytes_(reservation),
      config_(config),
      server_(server) {
  if (config_.allocation == AllocationMode::kCliffhanger &&
      config_.knobs.hill_climbing) {
    climber_ = std::make_unique<HillClimber>(
        config_.knobs.climber, HashCombine(config_.seed, app_id));
  }
  if (config_.store_values) {
    // Value residency is driven by the partitioned queues' eviction
    // listener; the other schemes have no shadow/demotion callbacks.
    assert(config_.eviction == EvictionScheme::kLru ||
           config_.eviction == EvictionScheme::kMidpoint);
    value_store_ = std::make_unique<ValueStore>();
  }
  if (config_.eviction == EvictionScheme::kGlobalLog) {
    // The log owns the whole reservation outright (100% utilization).
    auto& entry = GetOrCreateEntry(0);
    entry.queue->SetCapacityBytes(reservation_);
    free_bytes_ = 0;
  }
}

AppCache::~AppCache() = default;

AppCache::ClassEntry& AppCache::GetOrCreateEntry(int slab_class) {
  assert(slab_class >= 0 && slab_class < kMaxSlabClasses);
  std::unique_ptr<ClassEntry>& slot =
      classes_[static_cast<size_t>(slab_class)];
  if (slot) return *slot;

  auto entry = std::make_unique<ClassEntry>();
  entry->slab_class = slab_class;
  const uint32_t chunk = ChunkSize(slab_class);

  switch (config_.eviction) {
    case EvictionScheme::kArc:
      entry->queue = std::make_unique<ArcQueue>(chunk);
      break;
    case EvictionScheme::kGlobalLog:
      entry->queue = std::make_unique<GlobalLogQueue>(0);
      break;
    case EvictionScheme::kLru:
    case EvictionScheme::kMidpoint: {
      PartitionConfig pc;
      pc.queue.chunk_size = chunk;
      pc.queue.policy = config_.eviction == EvictionScheme::kMidpoint
                            ? InsertionPolicy::kMidpoint
                            : InsertionPolicy::kLru;
      pc.queue.tail_items = config_.tail_items;
      pc.queue.cliff_shadow_items = config_.cliff_shadow_items;
      pc.queue.hill_shadow_bytes = config_.hill_shadow_bytes;
      auto partitioned = std::make_unique<PartitionedSlabQueue>(pc);
      entry->partitioned = partitioned.get();
      if (value_store_) partitioned->SetListener(value_store_.get());
      entry->queue = std::move(partitioned);
      break;
    }
  }

  if (config_.allocation == AllocationMode::kCliffhanger &&
      entry->partitioned != nullptr) {
    if (config_.knobs.cliff_scaling) {
      entry->scaler = std::make_unique<CliffScaler>(entry->partitioned,
                                                    config_.knobs.scaler);
    }
    if (climber_) {
      const uint64_t min_bytes =
          std::max<uint64_t>(config_.page_size, 4ULL * chunk);
      entry->adapter = std::make_unique<ClassAdapter>(entry.get(), min_bytes);
      entry->climber_index = climber_->AddQueue(entry->adapter.get());
    }
  }

  slot = std::move(entry);
  return *slot;
}

void AppCache::EnsureCapacityFor(ClassEntry& entry, uint64_t needed_bytes) {
  if (config_.allocation == AllocationMode::kStatic) return;
  if (config_.eviction == EvictionScheme::kGlobalLog) return;
  // FCFS page grants: grow the class while the app still has free memory
  // and the queue cannot hold the incoming item. Deliberately page-by-page
  // — the scaler's OnCapacityChanged advances its cliff-exit hysteresis
  // per call, so batching a multi-page grant (chunk_size > page_size
  // classes) into one capacity step would change controller dynamics.
  // Per-page resizes are cheap now: the arena/index reserve underneath
  // grows geometrically, never by a page's worth of copying.
  while (entry.queue->used_bytes() + needed_bytes >
             entry.queue->capacity_bytes() &&
         free_bytes_ >= config_.page_size) {
    free_bytes_ -= config_.page_size;
    entry.queue->SetCapacityBytes(entry.queue->capacity_bytes() +
                                  config_.page_size);
    if (entry.scaler) entry.scaler->OnCapacityChanged();
  }
}

int AppCache::ClassFor(const ItemMeta& item) const {
  if (config_.eviction == EvictionScheme::kGlobalLog) return 0;
  return SlabClassFor(ExactFootprint(item.key_size, item.value_size));
}

Outcome AppCache::Get(const ItemMeta& item) {
  return GetAtClass(ClassFor(item), item);
}

Outcome AppCache::GetAtClass(int slab_class, const ItemMeta& item) {
  Outcome outcome;
  outcome.slab_class = slab_class;
  if (slab_class < 0) {
    outcome.cacheable = false;
    return outcome;
  }
  auto& entry = GetOrCreateEntry(slab_class);
  ++entry.stats.gets;

  // ARC admits on miss inside Get(); make sure it has room to do so.
  if (config_.eviction == EvictionScheme::kArc) {
    EnsureCapacityFor(entry, ChunkSize(slab_class));
  }

  const GetResult r = entry.queue->Get(item);
  outcome.hit = r.hit;
  outcome.region = r.region;
  outcome.expired = r.expired;
  if (r.hit) {
    ++entry.stats.hits;
    if (r.region == HitRegion::kPhysicalTail) ++entry.stats.tail_hits;
  } else if (r.region == HitRegion::kCliffShadow) {
    ++entry.stats.cliff_shadow_hits;
  } else if (r.region == HitRegion::kHillShadow) {
    ++entry.stats.hill_shadow_hits;
  }

  if (config_.allocation == AllocationMode::kCliffhanger) {
    if (r.region == HitRegion::kHillShadow) {
      if (climber_) climber_->OnShadowHit(entry.climber_index);
      if (config_.knobs.cross_app && server_ != nullptr) {
        server_->OnAppShadowHit(cross_index_, HillGradientWeight(entry));
      }
    }
    if (entry.scaler) {
      entry.scaler->OnAccess(r);
      if (!r.hit) entry.scaler->OnMiss();
    }
  }
  return outcome;
}

double AppCache::HillGradientWeight(const ClassEntry& entry) const {
  const CliffScaler* scaler = entry.scaler.get();
  if (scaler == nullptr || !scaler->on_cliff()) return 1.0;
  // On a cliff the scaler serves the concave hull between its two pointers,
  // whose slope exceeds the raw curve gradient the hill shadow samples by
  // roughly (pointer span) / (operating point) — the hull bridges that many
  // extra items' worth of rise per marginal item. Clamp: the pointers can
  // run far ahead of the operating point while the hull is still forming.
  const auto operating_items = static_cast<double>(
      entry.partitioned != nullptr ? entry.partitioned->capacity_items() : 0);
  if (operating_items <= 0.0) return 1.0;
  const double span = scaler->right_pointer() - scaler->left_pointer();
  if (span <= 0.0) return 1.0;
  return std::min(1.0 + span / operating_items, kMaxCrossAppGradientWeight);
}

bool AppCache::Set(const ItemMeta& item) {
  const int slab_class = ClassFor(item);
  if (slab_class < 0) return false;  // uncacheable
  auto& entry = GetOrCreateEntry(slab_class);
  ++entry.stats.sets;
  EnsureCapacityFor(entry, ChunkSize(slab_class));
  entry.queue->Fill(item);
  return true;
}

bool AppCache::Touch(const ItemMeta& item) {
  const int slab_class = ClassFor(item);
  if (slab_class < 0) return false;
  // Like Delete, never materializes a class: touching an absent key must
  // not allocate queue state.
  const ClassEntry* entry = classes_[static_cast<size_t>(slab_class)].get();
  return entry != nullptr && entry->queue->Touch(item);
}

void AppCache::Delete(const ItemMeta& item) {
  const int slab_class = ClassFor(item);
  if (slab_class < 0) return;
  const ClassEntry* entry = classes_[static_cast<size_t>(slab_class)].get();
  if (entry != nullptr) entry->queue->Delete(item.key);
}

// --- Value-mode verbs ---

PartitionedSlabQueue* AppCache::PartitionedFor(int slab_class) const {
  assert(slab_class >= 0 && slab_class < kMaxSlabClasses);
  const ClassEntry* entry = classes_[static_cast<size_t>(slab_class)].get();
  return entry == nullptr ? nullptr : entry->partitioned;
}

AppCache::Liveness AppCache::LivenessOf(uint64_t key,
                                        const ValueStore::Ref& ref,
                                        uint32_t now_s,
                                        uint32_t flush_at_s) const {
  if (!ref.has_slot()) return Liveness::kAbsent;  // unknown or shadow-only
  const PartitionedSlabQueue* q = PartitionedFor(ref.slab_class);
  uint32_t expiry_s = 0;
  if (q == nullptr || !q->PeekPhysical(key, &expiry_s)) {
    return Liveness::kAbsent;
  }
  if (ExpiredAt(expiry_s, now_s)) return Liveness::kExpired;
  if (flush_at_s != 0 && now_s >= flush_at_s &&
      value_store_->Header(ref).stored_s < flush_at_s) {
    return Liveness::kFlushed;
  }
  return Liveness::kLive;
}

void AppCache::RegisterStoredValue(uint64_t key, int slab_class,
                                   const void* data, uint32_t size,
                                   uint32_t flags, uint64_t cas,
                                   uint32_t stored_s) {
  PartitionedSlabQueue* q = PartitionedFor(slab_class);
  if (q == nullptr) return;
  switch (q->ResidencyOf(key)) {
    case Residency::kPhysical:
      value_store_->StorePhysical(key, slab_class, data, size, flags, cas,
                                  stored_s);
      break;
    case Residency::kShadow:
      value_store_->RegisterShadow(key, slab_class);
      break;
    case Residency::kAbsent:
      break;
  }
}

ValueOutcome AppCache::GetByKey(uint64_t key, uint32_t key_size,
                                uint32_t now_s, uint32_t flush_at_s,
                                ValueLease* lease) {
  assert(value_store_);
  ValueOutcome vo;
  const ValueStore::Ref ref = value_store_->Find(key);

  // flush_all enforcement happens before the counted probe, and reclaims
  // without statistics: the old adapter's flush reclamation was likewise
  // invisible to the core. Entries that are ALSO past their own expiry read
  // as expired, so the counted lazy-expiry path below takes them and
  // get_expired stays truthful.
  if (flush_at_s != 0 && now_s >= flush_at_s &&
      LivenessOf(key, ref, now_s, flush_at_s) == Liveness::kFlushed) {
    // The listener frees the slot and forgets the key.
    PartitionedFor(ref.slab_class)->Delete(key);
    vo.flush_reclaimed = true;
    vo.outcome.slab_class = ref.slab_class;
    vo.outcome.cacheable = false;
    return vo;
  }

  ItemMeta item;
  item.key = key;
  item.key_size = key_size;
  item.value_size = 0;
  item.now_s = now_s;
  // Unknown keys probe the class a zero-byte value of this key would land
  // in — the smallest class that fits the key itself.
  const int slab_class = ref.found ? ref.slab_class : ClassFor(item);
  const uint64_t mutations = value_store_->mutations();
  vo.outcome = GetAtClass(slab_class, item);
  if (!vo.outcome.hit) return vo;
  // Residency invariant: a queue hit implies a live slot (shadow entries
  // can only re-enter the physical segments through Fill). A hit leaves
  // the store alone unless a scaler step evicted during the access (one
  // that turns partitioning off can drop the hit key's own slot), so the
  // first Ref stands unless the store's mutation count moved.
  const ValueStore::Ref hit_ref = value_store_->mutations() == mutations
                                      ? ref
                                      : value_store_->Find(key);
  assert(hit_ref == value_store_->Find(key));
  if (!hit_ref.has_slot()) {
    // The slot went with that scaler step, so nothing is served: the
    // access counts as a miss, and outcome.hit is false with region kMiss,
    // as for any miss. The controllers already took it as the queue hit it
    // was; only the statistics GetAtClass counted are taken back.
    ClassStats& stats = classes_[static_cast<size_t>(slab_class)]->stats;
    --stats.hits;
    if (vo.outcome.region == HitRegion::kPhysicalTail) --stats.tail_hits;
    vo.outcome.hit = false;
    vo.outcome.region = HitRegion::kMiss;
    return vo;
  }
  value_store_->FillView(hit_ref, &vo.view);
  vo.valid = true;
  if (lease != nullptr) *lease = value_store_->Lease(hit_ref);
  return vo;
}

ValueOutcome AppCache::PeekByKey(uint64_t key, uint32_t now_s,
                                 uint32_t flush_at_s) {
  assert(value_store_);
  ValueOutcome vo;
  const ValueStore::Ref ref = value_store_->Find(key);
  switch (LivenessOf(key, ref, now_s, flush_at_s)) {
    case Liveness::kAbsent:
      break;
    case Liveness::kExpired:
      PartitionedFor(ref.slab_class)->Delete(key);
      vo.outcome.expired = true;
      break;
    case Liveness::kFlushed:
      PartitionedFor(ref.slab_class)->Delete(key);
      vo.flush_reclaimed = true;
      break;
    case Liveness::kLive:
      value_store_->FillView(ref, &vo.view);
      vo.valid = true;
      vo.outcome.slab_class = ref.slab_class;
      break;
  }
  return vo;
}

bool AppCache::SetValue(const ItemMeta& item, const void* data,
                        uint32_t flags, uint64_t cas) {
  assert(value_store_);
  const int new_class = ClassFor(item);
  const ValueStore::Ref old = value_store_->Find(item.key);
  if (new_class < 0) {
    // Too large for any class: memcached drops the old incarnation
    // entirely. Uncounted, exactly like the metadata Set's false return.
    if (old.found) {
      PartitionedSlabQueue* q = PartitionedFor(old.slab_class);
      if (q != nullptr) q->Delete(item.key);
    }
    return false;
  }
  if (old.found && old.slab_class != new_class) {
    // The key changes slab class: evict the old incarnation explicitly.
    // (Same-class replacement needs nothing here — Fill erases first, and
    // the listener's OnKeyGone frees the old slot.)
    PartitionedSlabQueue* q = PartitionedFor(old.slab_class);
    if (q != nullptr) q->Delete(item.key);
  }
  const bool admitted = Set(item);
  assert(admitted);  // new_class >= 0
  (void)admitted;
  RegisterStoredValue(item.key, new_class, data, item.value_size, flags, cas,
                      item.now_s);
  return true;
}

ReplaceResult AppCache::ReplaceValue(uint64_t key, uint32_t key_size,
                                     const void* data, uint32_t size,
                                     uint64_t cas, uint32_t now_s) {
  assert(value_store_);
  const ValueStore::Ref ref = value_store_->Find(key);
  if (!ref.has_slot()) return ReplaceResult::kFailed;
  const int new_class = SlabClassFor(ExactFootprint(key_size, size));
  PartitionedSlabQueue* old_q = PartitionedFor(ref.slab_class);
  if (new_class < 0) {
    // The rewritten object fits no class: the old incarnation dies (the
    // adapter surfaces SERVER_ERROR for the rewrite itself).
    if (old_q != nullptr) old_q->Delete(key);
    return ReplaceResult::kFailed;
  }
  if (new_class == ref.slab_class) {
    // Same footprint class: overwrite the slot and refresh recency without
    // minting phantom set statistics. Flags survive the rewrite.
    const uint32_t flags = value_store_->Header(ref).flags;
    value_store_->RewriteInPlace(key, ref, data, size, flags, cas, now_s);
    ItemMeta item;
    item.key = key;
    item.key_size = key_size;
    item.value_size = size;
    item.expiry_s = kKeepExpiry;
    item.now_s = now_s;
    Touch(item);
    return ReplaceResult::kInPlace;
  }
  // Re-slab: preserve the stored expiry and flags across the move. This is
  // a real re-fill, counted like a Set.
  uint32_t expiry_s = 0;
  if (old_q != nullptr) (void)old_q->PeekPhysical(key, &expiry_s);
  const uint32_t flags = value_store_->Header(ref).flags;
  if (old_q != nullptr) old_q->Delete(key);  // frees the old slot
  ItemMeta item;
  item.key = key;
  item.key_size = key_size;
  item.value_size = size;
  item.expiry_s = expiry_s;
  item.now_s = now_s;
  const bool admitted = Set(item);
  assert(admitted);  // new_class >= 0
  (void)admitted;
  RegisterStoredValue(key, new_class, data, size, flags, cas, now_s);
  return ReplaceResult::kReSlabbed;
}

bool AppCache::TouchByKey(uint64_t key, uint32_t key_size, uint32_t expiry_s,
                          uint32_t now_s, uint32_t flush_at_s) {
  assert(value_store_);
  const ValueStore::Ref ref = value_store_->Find(key);
  const Liveness liveness = LivenessOf(key, ref, now_s, flush_at_s);
  if (liveness != Liveness::kLive) {
    // Lazy reclamation, as PeekByKey does it.
    if (liveness != Liveness::kAbsent) {
      PartitionedFor(ref.slab_class)->Delete(key);
    }
    return false;
  }
  ItemMeta item;
  item.key = key;
  item.key_size = key_size;
  item.value_size = value_store_->Header(ref).value_size;
  item.expiry_s = expiry_s;
  item.now_s = now_s;
  return Touch(item);
}

bool AppCache::DeleteByKey(uint64_t key, uint32_t now_s,
                           uint32_t flush_at_s) {
  assert(value_store_);
  const ValueStore::Ref ref = value_store_->Find(key);
  // No index entry means no queue state either (every Fill registers), so
  // an unknown key is a pure no-op.
  if (!ref.found) return false;
  const bool valid =
      LivenessOf(key, ref, now_s, flush_at_s) == Liveness::kLive;
  PartitionedSlabQueue* q = PartitionedFor(ref.slab_class);
  if (q != nullptr) q->Delete(key);  // physical or shadow; listener cleans up
  return valid;
}

void AppCache::SetStaticAllocation(
    const std::map<int, uint64_t>& bytes_per_class) {
  uint64_t total = 0;
  for (const auto& [slab_class, bytes] : bytes_per_class) {
    auto& entry = GetOrCreateEntry(slab_class);
    entry.queue->SetCapacityBytes(bytes);
    if (entry.scaler) entry.scaler->OnCapacityChanged();
    total += bytes;
  }
  free_bytes_ = total >= reservation_ ? 0 : reservation_ - total;
}

uint64_t AppCache::allocated_bytes() const {
  uint64_t total = 0;
  for (const auto& entry : classes_) {
    if (entry) total += entry->queue->capacity_bytes();
  }
  return total;
}

uint64_t AppCache::shadow_overhead_bytes() const {
  uint64_t total = 0;
  for (const auto& entry : classes_) {
    if (entry && entry->partitioned != nullptr) {
      total += entry->partitioned->shadow_overhead_bytes();
    }
  }
  return total;
}

void AppCache::ShrinkProportionally(uint64_t deficit) {
  const uint64_t allocated = allocated_bytes();
  if (allocated == 0 || deficit == 0) return;
  uint64_t remaining = deficit;
  for (auto& entry : classes_) {
    if (remaining == 0) break;
    if (!entry) continue;
    const uint64_t cap = entry->queue->capacity_bytes();
    uint64_t cut = static_cast<uint64_t>(
        static_cast<double>(cap) / static_cast<double>(allocated) *
        static_cast<double>(deficit));
    cut = std::min({cut, cap, remaining});
    entry->queue->SetCapacityBytes(cap - cut);
    if (entry->scaler) entry->scaler->OnCapacityChanged();
    remaining -= cut;
  }
  // Rounding leftovers: take from the largest queue.
  while (remaining > 0) {
    ClassEntry* largest = nullptr;
    for (auto& entry : classes_) {
      if (!entry) continue;
      if (largest == nullptr ||
          entry->queue->capacity_bytes() > largest->queue->capacity_bytes()) {
        largest = entry.get();
      }
    }
    if (largest == nullptr || largest->queue->capacity_bytes() == 0) break;
    const uint64_t cut =
        std::min(remaining, largest->queue->capacity_bytes());
    largest->queue->SetCapacityBytes(largest->queue->capacity_bytes() - cut);
    if (largest->scaler) largest->scaler->OnCapacityChanged();
    remaining -= cut;
  }
}

void AppCache::SetReservation(uint64_t bytes) {
  if (bytes >= reservation_) {
    free_bytes_ += bytes - reservation_;
    reservation_ = bytes;
    return;
  }
  uint64_t deficit = reservation_ - bytes;
  const uint64_t from_free = std::min(free_bytes_, deficit);
  free_bytes_ -= from_free;
  deficit -= from_free;
  ShrinkProportionally(deficit);
  reservation_ = bytes;
}

bool AppCache::CheckInvariants() const {
  for (const auto& entry : classes_) {
    if (entry && entry->partitioned != nullptr &&
        !entry->partitioned->CheckInvariants()) {
      return false;
    }
  }
  if (value_store_ && !value_store_->CheckInvariants()) return false;
  // Conservation: FCFS/Cliffhanger grants and climber transfers only move
  // bytes between free_bytes_ and class capacities. kStatic allocations and
  // the global log are pinned independently of the reservation.
  if (config_.allocation != AllocationMode::kStatic &&
      config_.eviction != EvictionScheme::kGlobalLog &&
      allocated_bytes() + free_bytes_ != reservation_) {
    return false;
  }
  // Only the cross-app climber (and the RemoveApp redistribution that
  // comes with it) moves a live reservation off the registered one.
  if (cross_adapter_ == nullptr && reservation_ != registered_bytes_) {
    return false;
  }
  return true;
}

std::vector<AppCache::ClassInfo> AppCache::ClassInfos() const {
  std::vector<ClassInfo> infos;
  for (const auto& entry : classes_) {
    if (!entry) continue;
    ClassInfo info;
    info.slab_class = entry->slab_class;
    info.capacity_bytes = entry->queue->capacity_bytes();
    info.used_bytes = entry->queue->used_bytes();
    info.stats = entry->stats;
    infos.push_back(info);
  }
  return infos;
}

ClassStats AppCache::TotalStats() const {
  ClassStats total;
  for (const auto& entry : classes_) {
    if (entry) total += entry->stats;
  }
  return total;
}

// --- CacheServer ---

// Climber surface for a whole application (cross-app mode): "queue size" is
// the app's reservation, and the floor derives from the registered one.
class CacheServer::AppAdapter final : public ClimbableQueue {
 public:
  AppAdapter(AppCache* app, uint64_t page_size)
      : app_(app), page_size_(page_size) {}
  [[nodiscard]] uint64_t capacity_bytes() const override {
    return app_->reservation();
  }
  void SetCapacityBytes(uint64_t bytes) override {
    app_->SetReservation(bytes);
  }
  [[nodiscard]] uint64_t min_capacity_bytes() const override {
    // A tenant may never be squeezed below a handful of pages or an eighth
    // of its paid reservation, whichever is larger.
    return std::max<uint64_t>(4 * page_size_,
                              app_->registered_reservation() / 8);
  }

 private:
  AppCache* app_;
  uint64_t page_size_;
};

CacheServer::CacheServer(const ServerConfig& config) : config_(config) {
  if (config_.allocation == AllocationMode::kCliffhanger &&
      config_.knobs.cross_app) {
    HillClimberConfig cross = config_.knobs.climber;
    cross.max_credit_quanta = kCrossAppMaxCreditQuanta;
    cross_climber_ = std::make_unique<HillClimber>(
        cross, HashCombine(config_.seed, 0xA99ULL));
  }
}

CacheServer::~CacheServer() = default;

AppCache& CacheServer::AddApp(uint32_t app_id, uint64_t reservation) {
  assert(apps_.find(app_id) == apps_.end());
  auto app = std::make_unique<AppCache>(app_id, reservation, config_, this);
  AppCache* raw = app.get();
  apps_.emplace(app_id, std::move(app));
  if (cross_climber_) {
    raw->cross_adapter_ = std::make_unique<AppAdapter>(raw, config_.page_size);
    raw->cross_index_ = cross_climber_->AddQueue(raw->cross_adapter_.get());
  }
  return *raw;
}

bool CacheServer::RemoveApp(uint32_t app_id) {
  const auto it = apps_.find(app_id);
  if (it == apps_.end()) return false;
  AppCache* departing = it->second.get();
  assert(departing->value_store() == nullptr ||
         departing->value_store()->leases() == 0);
  const uint64_t freed = departing->reservation();
  if (cross_climber_) cross_climber_->RemoveQueue(departing->cross_index_);
  // Destroying the AppCache tears down every class queue (physical + shadow
  // nodes) and the value store's arenas — the departing tenant's memory is
  // reclaimed eagerly, not lazily via eviction pressure.
  apps_.erase(it);
  // In cross-app mode the server-wide total is the paper's fixed memory
  // budget, so the departing tenant's share flows to the survivors.
  if (cross_climber_) RedistributeReservation(freed);
  return true;
}

void CacheServer::RedistributeReservation(uint64_t bytes) {
  if (bytes == 0 || apps_.empty()) return;
  uint64_t total = 0;
  for (const auto& [id, app] : apps_) total += app->reservation();

  // Largest-remainder split proportional to current reservations: grants
  // sum to exactly `bytes`, and the (remainder desc, app_id asc) ordering
  // keeps the split deterministic.
  struct Share {
    uint32_t app_id;
    AppCache* app;
    uint64_t grant;
    uint64_t remainder;
  };
  std::vector<Share> shares;
  shares.reserve(apps_.size());
  uint64_t granted = 0;
  for (auto& [id, app] : apps_) {
    Share s;
    s.app_id = id;
    s.app = app.get();
    if (total == 0) {
      s.grant = bytes / apps_.size();
      s.remainder = 0;  // resolve ties purely by app_id below
    } else {
      const auto numer = static_cast<unsigned __int128>(bytes) *
                         static_cast<unsigned __int128>(app->reservation());
      s.grant = static_cast<uint64_t>(numer / total);
      s.remainder = static_cast<uint64_t>(numer % total);
    }
    granted += s.grant;
    shares.push_back(s);
  }
  uint64_t leftover = bytes - granted;
  std::sort(shares.begin(), shares.end(), [](const Share& a, const Share& b) {
    if (a.remainder != b.remainder) return a.remainder > b.remainder;
    return a.app_id < b.app_id;
  });
  for (auto& s : shares) {
    if (leftover == 0) break;
    ++s.grant;
    --leftover;
  }
  for (const auto& s : shares) {
    if (s.grant > 0) s.app->SetReservation(s.app->reservation() + s.grant);
  }
}

AppCache* CacheServer::app(uint32_t app_id) {
  const auto it = apps_.find(app_id);
  return it == apps_.end() ? nullptr : it->second.get();
}

const AppCache* CacheServer::app(uint32_t app_id) const {
  const auto it = apps_.find(app_id);
  return it == apps_.end() ? nullptr : it->second.get();
}

// Routed verbs soft-fail on an unknown app: the response reads as an
// uncacheable miss / failed store, never queue state. See the header note
// on the RemoveApp race with in-flight daemon ops.

Outcome CacheServer::Get(uint32_t app_id, const ItemMeta& item) {
  AppCache* a = app(app_id);
  if (a == nullptr) {
    Outcome o;
    o.cacheable = false;
    return o;
  }
  return a->Get(item);
}

bool CacheServer::Set(uint32_t app_id, const ItemMeta& item) {
  AppCache* a = app(app_id);
  return a != nullptr && a->Set(item);
}

bool CacheServer::Touch(uint32_t app_id, const ItemMeta& item) {
  AppCache* a = app(app_id);
  return a != nullptr && a->Touch(item);
}

void CacheServer::Delete(uint32_t app_id, const ItemMeta& item) {
  AppCache* a = app(app_id);
  if (a != nullptr) a->Delete(item);
}

ValueOutcome CacheServer::GetByKey(uint32_t app_id, uint64_t key,
                                   uint32_t key_size, uint32_t now_s,
                                   uint32_t flush_at_s, ValueLease* lease) {
  AppCache* a = app(app_id);
  if (a == nullptr) {
    ValueOutcome vo;
    vo.outcome.cacheable = false;
    return vo;
  }
  return a->GetByKey(key, key_size, now_s, flush_at_s, lease);
}

ValueOutcome CacheServer::PeekByKey(uint32_t app_id, uint64_t key,
                                    uint32_t now_s, uint32_t flush_at_s) {
  AppCache* a = app(app_id);
  if (a == nullptr) {
    ValueOutcome vo;
    vo.outcome.cacheable = false;
    return vo;
  }
  return a->PeekByKey(key, now_s, flush_at_s);
}

bool CacheServer::SetValue(uint32_t app_id, const ItemMeta& item,
                           const void* data, uint32_t flags, uint64_t cas) {
  AppCache* a = app(app_id);
  return a != nullptr && a->SetValue(item, data, flags, cas);
}

ReplaceResult CacheServer::ReplaceValue(uint32_t app_id, uint64_t key,
                                        uint32_t key_size, const void* data,
                                        uint32_t size, uint64_t cas,
                                        uint32_t now_s) {
  AppCache* a = app(app_id);
  if (a == nullptr) return ReplaceResult::kFailed;
  return a->ReplaceValue(key, key_size, data, size, cas, now_s);
}

bool CacheServer::TouchByKey(uint32_t app_id, uint64_t key, uint32_t key_size,
                             uint32_t expiry_s, uint32_t now_s,
                             uint32_t flush_at_s) {
  AppCache* a = app(app_id);
  return a != nullptr &&
         a->TouchByKey(key, key_size, expiry_s, now_s, flush_at_s);
}

bool CacheServer::DeleteByKey(uint32_t app_id, uint64_t key, uint32_t now_s,
                              uint32_t flush_at_s) {
  AppCache* a = app(app_id);
  return a != nullptr && a->DeleteByKey(key, now_s, flush_at_s);
}

void CacheServer::OnAppShadowHit(size_t app_index, double weight) {
  if (cross_climber_) cross_climber_->OnShadowHit(app_index, weight);
}

ClassStats CacheServer::TotalStats() const {
  ClassStats total;
  for (const auto& [id, app] : apps_) total += app->TotalStats();
  return total;
}

std::vector<uint32_t> CacheServer::app_ids() const {
  std::vector<uint32_t> ids;
  ids.reserve(apps_.size());
  for (const auto& [id, app] : apps_) ids.push_back(id);
  return ids;
}

uint64_t CacheServer::total_reservation() const {
  uint64_t total = 0;
  for (const auto& [id, app] : apps_) total += app->reservation();
  return total;
}

bool CacheServer::CheckInvariants() const {
  for (const auto& [id, app] : apps_) {
    if (!app->CheckInvariants()) return false;
  }
  return true;
}

}  // namespace cliffhanger
