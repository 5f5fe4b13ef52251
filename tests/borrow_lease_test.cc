// Borrow leases: every GET hit's payload leaves zero-copy from the value
// arena, and nothing that happens to the key before the response is
// flushed may change the borrowed bytes.
//
// The arena and store tests drive the slot state machine directly (live ->
// retired while leased -> free on the last lease; copy-on-write rewrites).
// The adapter tests run pipelined bursts through CacheAdapter::HandleBatch
// with no socket: each burst's reply is read from the response segments
// *before* ReleaseBurstPins(), exactly where the socket server flushes.
// Their values are at least net::kMinBorrowBytes, so GET hits borrow. An
// adapter that stopped copying without leasing fails them: the overwrite
// pops the just-freed slot straight back off the LIFO free-list and the
// earlier reply would show the new bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cache/value_store.h"
#include "core/sharded_server.h"
#include "net/ascii_protocol.h"
#include "net/cache_adapter.h"
#include "sim/experiment.h"
#include "util/slab_geometry.h"
#include "util/value_arena.h"

namespace cliffhanger {
namespace {

TEST(ValueArenaLease, FreeingALeasedSlotRetiresItUntilTheLastLease) {
  ValueArena arena(ChunkSize(1));
  const uint32_t slot = arena.Allocate();
  arena.Lease(slot);
  arena.Lease(slot);
  arena.Free(slot);
  EXPECT_EQ(arena.live_slots(), 0u);
  EXPECT_EQ(arena.retired_slots(), 1u);
  EXPECT_TRUE(arena.CheckSlots());

  // A retired slot is off the free-list: the next allocation is fresh.
  const uint32_t other = arena.Allocate();
  EXPECT_NE(other, slot);

  arena.Unlease(slot);
  EXPECT_EQ(arena.retired_slots(), 1u);  // one lease still out
  arena.Unlease(slot);
  EXPECT_EQ(arena.retired_slots(), 0u);
  EXPECT_EQ(arena.leases(), 0u);
  EXPECT_TRUE(arena.CheckSlots());
  EXPECT_EQ(arena.Allocate(), slot);  // now recycled
  EXPECT_EQ(arena.pool_slots(), 2u);
}

TEST(ValueArenaLease, UnleasingALiveSlotKeepsItLive) {
  ValueArena arena(ChunkSize(0));
  const uint32_t slot = arena.Allocate();
  arena.Lease(slot);
  arena.Unlease(slot);
  EXPECT_EQ(arena.live_slots(), 1u);
  EXPECT_FALSE(arena.leased(slot));
  arena.Free(slot);
  EXPECT_EQ(arena.retired_slots(), 0u);
  EXPECT_EQ(arena.Allocate(), slot);
  EXPECT_TRUE(arena.CheckSlots());
}

TEST(ValueStoreLease, RewriteOfALeasedSlotCopiesOnWrite) {
  ValueStore store;
  constexpr uint64_t kKey = 7;
  store.StorePhysical(kKey, 1, "old!", 4, /*flags=*/3, /*cas=*/1, 10);
  const ValueStore::Ref before = store.Find(kKey);
  ValueView view;
  store.FillView(before, &view);
  const ValueLease lease = store.Lease(before);

  store.RewriteInPlace(kKey, before, "new", 3, 3, 2, 11);
  const ValueStore::Ref after = store.Find(kKey);
  EXPECT_NE(after.slot, before.slot);
  EXPECT_EQ(std::string_view(view.data, view.size), "old!");
  EXPECT_EQ(store.value_bytes(), 3u);
  EXPECT_TRUE(store.CheckInvariants());

  // Overwriting through StorePhysical (drop, then allocate) must not get
  // the still-leased slot back either.
  store.StorePhysical(kKey, 1, "newer", 5, 3, 3, 12);
  EXPECT_NE(store.Find(kKey).slot, before.slot);
  EXPECT_EQ(std::string_view(view.data, view.size), "old!");

  ValueStore::ReturnLease(lease);
  EXPECT_EQ(store.leases(), 0u);
  EXPECT_TRUE(store.CheckInvariants());

  // With no lease out, a rewrite stays in place.
  const ValueStore::Ref live = store.Find(kKey);
  store.RewriteInPlace(kKey, live, "abc", 3, 3, 4, 13);
  EXPECT_EQ(store.Find(kKey).slot, live.slot);
  EXPECT_TRUE(store.CheckInvariants());
}

// AppCache::GetByKey reuses the Ref it found before the counted probe when
// this count shows the store unchanged since, so every call that can move
// a key's index entry must move it, and no read may.
TEST(ValueStoreMutations, MoveOnEveryIndexChangeAndNeverOnReads) {
  ValueStore store;
  uint64_t last = store.mutations();
  const auto moved = [&store, &last] {
    const uint64_t now = store.mutations();
    const bool changed = now != last;
    last = now;
    return changed;
  };

  store.StorePhysical(1, 1, "value", 5, /*flags=*/0, /*cas=*/1, 10);
  EXPECT_TRUE(moved());
  const ValueStore::Ref ref = store.Find(1);
  ValueView view;
  store.FillView(ref, &view);
  EXPECT_EQ(store.Header(ref).value_size, 5u);
  const ValueLease lease = store.Lease(ref);
  ValueStore::ReturnLease(lease);
  EXPECT_FALSE(moved()) << "Find, FillView, Header and leases are reads";

  store.RewriteInPlace(1, ref, "v2", 2, 0, 2, 11);
  EXPECT_TRUE(moved());
  store.OnValueDrop(1);  // physical -> shadow-only
  EXPECT_TRUE(moved());
  store.RegisterShadow(2, 1);
  EXPECT_TRUE(moved());
  store.OnKeyGone(1);
  EXPECT_TRUE(moved());
  EXPECT_FALSE(store.Find(1).found);
  EXPECT_TRUE(store.Find(2).found);
  EXPECT_FALSE(moved());
  EXPECT_TRUE(store.CheckInvariants());
}

// One adapter over a one-shard server (so eviction order is predictable),
// pipelined bursts in, replies out as the socket server would flush them.
class BorrowLeaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ShardedServerConfig config;
    config.server = DefaultServerConfig();
    config.server.store_values = true;
    config.num_shards = 1;
    server_ = std::make_unique<ShardedCacheServer>(config);
    // Two 64 KiB pages: room for two values of the 64 KiB class.
    server_->AddApp(1, 2 * kPageSize);
    net::CacheAdapterConfig adapter_config;
    adapter_config.clock = [] { return 100u; };
    adapter_ = std::make_unique<net::CacheAdapter>(server_.get(),
                                                   adapter_config);
  }

  // Runs `text` as one burst and returns the reply bytes, read while the
  // leases are held. `borrowed` counts GET-hit segments whose payload
  // points into the arena, `segments_used` the segments that carry any
  // bytes. Afterwards every lease is back and no slot is left retired.
  std::string Burst(const std::string& text, int* borrowed = nullptr,
                    int* segments_used = nullptr) {
    requests_.push_back(text);
    const std::string& buffer = requests_.back();
    const std::vector<net::Command> cmds = Parse(buffer);
    std::vector<net::ResponseSegment> segments;
    EXPECT_TRUE(adapter_->HandleBatch(cmds.data(), cmds.size(), &segments));
    std::string reply;
    int zero_copy = 0;
    int non_empty = 0;
    for (const net::ResponseSegment& seg : segments) {
      reply += seg.text;
      if (seg.payload != nullptr) {
        reply.append(seg.payload, seg.payload_size);
        ++zero_copy;
      }
      reply += seg.trailer;
      if (!seg.text.empty() || seg.payload_size > 0 || !seg.trailer.empty()) {
        ++non_empty;
      }
    }
    if (borrowed != nullptr) *borrowed = zero_copy;
    if (segments_used != nullptr) *segments_used = non_empty;
    held_ = server_->MergedValueStats();
    adapter_->ReleaseBurstPins();
    const ShardedCacheServer::ValueStats after = server_->MergedValueStats();
    EXPECT_EQ(after.leases, 0u);
    EXPECT_EQ(after.retired_slots, 0u);
    EXPECT_TRUE(server_->CheckInvariants());
    return reply;
  }

  // The commands of `buffer`, which they alias.
  static std::vector<net::Command> Parse(const std::string& buffer) {
    std::vector<net::Command> cmds;
    net::AsciiParser parser;
    size_t offset = 0;
    while (offset < buffer.size()) {
      net::Command cmd;
      size_t consumed = 0;
      const net::ParseStatus status = parser.Next(
          std::string_view(buffer).substr(offset), &consumed, &cmd);
      offset += consumed;
      if (status != net::ParseStatus::kCommand) break;
      cmds.push_back(cmd);
    }
    return cmds;
  }

  // The same commands one at a time through Handle(), replies concatenated.
  std::string OneByOne(const std::string& text) {
    std::string reply;
    for (const net::Command& cmd : Parse(text)) {
      EXPECT_TRUE(adapter_->Handle(cmd, &reply));
    }
    return reply;
  }

  static std::string Set(const std::string& key, const std::string& value) {
    return "set " + key + " 0 0 " + std::to_string(value.size()) + "\r\n" +
           value + "\r\n";
  }
  static std::string Value(const std::string& key, const std::string& value) {
    return "VALUE " + key + " 0 " + std::to_string(value.size()) + "\r\n" +
           value + "\r\nEND\r\n";
  }

  std::unique_ptr<ShardedCacheServer> server_;
  std::unique_ptr<net::CacheAdapter> adapter_;
  std::vector<std::string> requests_;  // commands alias these buffers
  ShardedCacheServer::ValueStats held_;  // taken before the release
};

TEST_F(BorrowLeaseTest, SetBetweenTwoGetsRepliesOldThenNewBytes) {
  const std::string old_value(2000, 'o');
  const std::string new_value(2000, 'n');
  Burst(Set("k", old_value));
  const std::string reply =
      Burst("get k\r\n" + Set("k", new_value) + "get k\r\n");
  EXPECT_EQ(reply, Value("k", old_value) + "STORED\r\n" +
                       Value("k", new_value));
  EXPECT_EQ(held_.leases, 2u);
  EXPECT_EQ(held_.retired_slots, 1u);  // the old slot, until the release
}

TEST_F(BorrowLeaseTest, IncrBetweenTwoGetsRepliesOldThenNewBytes) {
  // A counter is at most 20 digits, far below kMinBorrowBytes, so its hits
  // are copied; the rewrite of a leased slot is covered through append
  // here and through ValueStore above.
  Burst(Set("n", "41"));
  const std::string reply = Burst("get n\r\nincr n 1\r\nget n\r\n");
  EXPECT_EQ(reply, Value("n", "41") + "42\r\n" + Value("n", "42"));
  EXPECT_EQ(held_.leases, 0u);
}

TEST_F(BorrowLeaseTest, AppendBetweenTwoGetsRepliesOldThenNewBytes) {
  // The splice stays in the slot's class, so the rewrite would be in
  // place were the slot not leased.
  const std::string base(1500, 'a');
  Burst(Set("a", base));
  const std::string reply =
      Burst("get a\r\nappend a 0 0 3\r\ndef\r\nget a\r\n");
  EXPECT_EQ(reply,
            Value("a", base) + "STORED\r\n" + Value("a", base + "def"));
  EXPECT_EQ(held_.leases, 2u);
  EXPECT_EQ(held_.retired_slots, 1u);
}

TEST_F(BorrowLeaseTest, SetThatEvictsABorrowedKeyLeavesItsBytesAlone) {
  // 40000-byte values land in the 64 KiB class, one per page, and the
  // app's two pages hold two of them.
  const std::string x1(40000, '1');
  const std::string x2(40000, '2');
  const std::string x3(40000, '3');
  const std::string x4(40000, '4');
  Burst(Set("x1", x1) + Set("x2", x2));
  // get x1 makes x1 most recent; x3 then evicts x2, and x4 evicts x1,
  // whose slot the first reply still borrows.
  const std::string reply =
      Burst("get x1\r\n" + Set("x3", x3) + Set("x4", x4) + "get x1\r\n");
  EXPECT_EQ(reply, Value("x1", x1) + "STORED\r\nSTORED\r\nEND\r\n");
  EXPECT_EQ(held_.retired_slots, 1u);
  EXPECT_EQ(Burst("get x4\r\n"), Value("x4", x4));
}

TEST_F(BorrowLeaseTest, MixedBurstGetHitsBorrowFromTheArena) {
  const std::string large(net::kMinBorrowBytes, 'm');
  const std::string small(net::kMinBorrowBytes - 1, 's');
  Burst(Set("m", large) + Set("s", small));
  int borrowed = 0;
  const std::string reply =
      Burst(Set("other", "x") + "get m s\r\nversion\r\ngets m\r\n",
            &borrowed);
  // Both hits on m borrow, on either side of the barrier; s is copied.
  EXPECT_EQ(borrowed, 2);
  EXPECT_EQ(held_.leases, 2u);
  EXPECT_EQ(reply.substr(0, 8), "STORED\r\n");
  EXPECT_NE(reply.find("VALUE s 0 " + std::to_string(small.size()) +
                       "\r\n" + small + "\r\n"),
            std::string::npos);
}

TEST_F(BorrowLeaseTest, DeleteOfABorrowedKeyWaitsForTheRelease) {
  const std::string doomed(1500, 'd');
  Burst(Set("d", doomed));
  const std::string reply = Burst("get d\r\ndelete d\r\nget d\r\n");
  EXPECT_EQ(reply, Value("d", doomed) + "DELETED\r\nEND\r\n");
  EXPECT_EQ(held_.retired_slots, 1u);
}

TEST_F(BorrowLeaseTest, CopiedRepliesOfABurstLeaveAsOneSegment) {
  std::string sets;
  for (int k = 0; k < 8; ++k) {
    sets += Set("s" + std::to_string(k), std::string(100 + k, 'a' + k));
  }
  Burst(sets);
  std::string gets;
  for (int g = 0; g < 64; ++g) gets += "get s" + std::to_string(g % 8) + "\r\n";
  int borrowed = 0;
  int segments = 0;
  const std::string reply = Burst(gets, &borrowed, &segments);
  EXPECT_EQ(borrowed, 0);
  EXPECT_EQ(segments, 1);
  EXPECT_EQ(reply, OneByOne(gets));
}

TEST_F(BorrowLeaseTest, OnlyABorrowedPayloadClosesASegment) {
  const std::string big1(net::kMinBorrowBytes, '1');
  const std::string big2(3000, '2');
  Burst(Set("b1", big1) + Set("b2", big2) + Set("s", "small") +
        Set("t", std::string(net::kMinBorrowBytes - 1, 't')));
  // Idempotent, so Handle() can replay it afterwards: copied hits and a
  // miss around the borrowed ones, a barrier, a multiget that borrows twice
  // in a row, and a store and a delete between them.
  const std::string burst =
      "get s\r\nget b1\r\nget nope\r\nversion\r\nget b1 b2 t s\r\n" +
      Set("s", "small") + "delete nope\r\nget t b2\r\n";
  int borrowed = 0;
  int segments = 0;
  const std::string reply = Burst(burst, &borrowed, &segments);
  EXPECT_EQ(borrowed, 4);
  EXPECT_EQ(segments, borrowed + 1);
  EXPECT_EQ(reply, OneByOne(burst));
}

TEST_F(BorrowLeaseTest, QuitLeavesTheRepliesSoFarInTheSegments) {
  const std::string big(2000, 'q');
  Burst(Set("q", big));
  const std::string text = "get q\r\nversion\r\nquit\r\nget q\r\n";
  const std::vector<net::Command> cmds = Parse(text);
  std::vector<net::ResponseSegment> segments;
  EXPECT_FALSE(adapter_->HandleBatch(cmds.data(), cmds.size(), &segments));
  std::string reply;
  for (const net::ResponseSegment& seg : segments) {
    reply += seg.text;
    if (seg.payload != nullptr) reply.append(seg.payload, seg.payload_size);
    reply += seg.trailer;
  }
  adapter_->ReleaseBurstPins();
  EXPECT_EQ(reply, Value("q", big) + "VERSION " +
                       std::string(net::kServerVersion) + "\r\n");
  EXPECT_EQ(server_->MergedValueStats().leases, 0u);
}

TEST_F(BorrowLeaseTest, HandleCopiesTheHitAndReturnsItsLease) {
  const std::string value(1500, 'v');
  Burst(Set("h", value));
  net::Command cmd;
  size_t consumed = 0;
  net::AsciiParser parser;
  const std::string text = "get h\r\n";
  ASSERT_EQ(parser.Next(text, &consumed, &cmd), net::ParseStatus::kCommand);
  std::string out;
  ASSERT_TRUE(adapter_->Handle(cmd, &out));
  EXPECT_EQ(out, Value("h", value));
  EXPECT_EQ(server_->MergedValueStats().leases, 0u);
}

}  // namespace
}  // namespace cliffhanger
