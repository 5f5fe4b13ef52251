// Unit tests for the partial-write bookkeeping (net/segment_flush.h) that
// the socket server runs its burst flushes through. No sockets: write_some
// is a fake with a programmable byte budget, so the tests can park the
// cursor mid-segment (even mid-payload) and prove the spill + resume
// reproduce the byte stream exactly.
#include "net/segment_flush.h"

#include <cerrno>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "net/socket_server.h"

namespace cliffhanger {
namespace net {
namespace {

// write_some fake: consumes bytes into `sink` until the cumulative budget
// runs out, then reports the socket full (-EAGAIN) — i.e. the socket
// buffer filled up and stays full.
struct ThrottledSink {
  std::string sink;
  ssize_t budget = 1 << 20;  // total bytes the "socket" will ever take
  int fail_errno = 0;  // when non-zero, every call fails with -fail_errno
  int calls = 0;

  ssize_t operator()(const iovec* iov, int iov_count) {
    ++calls;
    if (fail_errno != 0) return -fail_errno;
    ssize_t& left = budget;
    ssize_t moved = 0;
    for (int i = 0; i < iov_count && left > 0; ++i) {
      const ssize_t take =
          std::min(left, static_cast<ssize_t>(iov[i].iov_len));
      sink.append(static_cast<const char*>(iov[i].iov_base),
                  static_cast<size_t>(take));
      moved += take;
      left -= take;
    }
    return moved > 0 ? moved : -EAGAIN;
  }
};

ResponseSegment MakeSegment(std::string text, const std::string* payload,
                            std::string trailer) {
  ResponseSegment seg;
  seg.text = std::move(text);
  if (payload != nullptr) {
    seg.payload = payload->data();
    seg.payload_size = payload->size();
  }
  seg.trailer = std::move(trailer);
  return seg;
}

std::string Concatenated(const std::vector<ResponseSegment>& segments) {
  std::string all;
  for (const auto& seg : segments) {
    all += seg.text;
    if (seg.payload != nullptr) all.append(seg.payload, seg.payload_size);
    all += seg.trailer;
  }
  return all;
}

TEST(SegmentFlushTest, FlushesEverythingWhenSocketTakesIt) {
  const std::string payload = "0123456789";
  std::vector<ResponseSegment> segments = {
      MakeSegment("VALUE k 0 10\r\n", &payload, "\r\nEND\r\n"),
      MakeSegment("STORED\r\n", nullptr, ""),
  };
  std::string wr;
  size_t wr_offset = 0;
  ThrottledSink sink;
  ASSERT_TRUE(FlushSegmentsVia(sink, &wr, &wr_offset, segments.data(),
                               segments.size()));
  EXPECT_EQ(sink.sink, Concatenated(segments));
  EXPECT_TRUE(wr.empty());
  EXPECT_EQ(wr_offset, 0u);
}

TEST(SegmentFlushTest, QueuedWriteBufferTailGoesOutFirst) {
  const std::string payload = "pp";
  std::vector<ResponseSegment> segments = {
      MakeSegment("A", &payload, "B")};
  // wr holds an already-sent prefix (before wr_offset) plus a queued tail;
  // only the tail may reach the wire, and it must precede the segments.
  std::string wr = "sentTAIL";
  size_t wr_offset = 4;
  ThrottledSink sink;
  ASSERT_TRUE(FlushSegmentsVia(sink, &wr, &wr_offset, segments.data(),
                               segments.size()));
  EXPECT_EQ(sink.sink, "TAILAppB");
  EXPECT_TRUE(wr.empty());
  EXPECT_EQ(wr_offset, 0u);
}

TEST(SegmentFlushTest, ImmediateEagainSpillsEverythingIncludingPayloads) {
  const std::string payload = "payload-bytes";
  std::vector<ResponseSegment> segments = {
      MakeSegment("T1", &payload, "E1"), MakeSegment("T2", nullptr, "E2")};
  std::string wr;
  size_t wr_offset = 0;
  ThrottledSink sink;
  sink.budget = 0;  // socket takes nothing
  ASSERT_TRUE(FlushSegmentsVia(sink, &wr, &wr_offset, segments.data(),
                               segments.size()));
  EXPECT_TRUE(sink.sink.empty());
  // The spill owns copies of the payload bytes — the arena borrow is over.
  EXPECT_EQ(wr, Concatenated(segments));
  EXPECT_EQ(wr_offset, 0u);
}

TEST(SegmentFlushTest, MidPayloadStallSpillsExactRemainderAndResumes) {
  const std::string payload = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
  std::vector<ResponseSegment> segments = {
      MakeSegment("VALUE k 0 26\r\n", &payload, "\r\nEND\r\n")};
  const std::string full = Concatenated(segments);
  // Stall the socket at every split point: after 1 byte, 2 bytes, ...,
  // including points inside the payload span and inside the trailer.
  for (size_t cut = 1; cut < full.size(); ++cut) {
    std::string wr;
    size_t wr_offset = 0;
    ThrottledSink first;
    first.budget = static_cast<ssize_t>(cut);
    ASSERT_TRUE(FlushSegmentsVia(first, &wr, &wr_offset, segments.data(),
                                 segments.size()))
        << "cut=" << cut;
    EXPECT_EQ(first.sink, full.substr(0, cut)) << "cut=" << cut;
    ASSERT_EQ(wr.substr(wr_offset), full.substr(cut)) << "cut=" << cut;
    // Resume exactly as the socket server does: later flush, no new
    // segments, the spilled tail drains first.
    ThrottledSink second;
    ASSERT_TRUE(FlushSegmentsVia(second, &wr, &wr_offset, nullptr, 0))
        << "cut=" << cut;
    EXPECT_EQ(first.sink + second.sink, full) << "cut=" << cut;
    EXPECT_TRUE(wr.empty());
  }
}

TEST(SegmentFlushTest, DribbleOfOneByteWritesStillCompletes) {
  const std::string payload = "0123456789";
  std::vector<ResponseSegment> segments = {
      MakeSegment("head", &payload, "tail"),
      MakeSegment("", &payload, ""),
      MakeSegment("x", nullptr, "y"),
  };
  std::string wr = "queued";
  size_t wr_offset = 0;
  // One byte per writev call: the cursor walks every piece boundary.
  struct OneByteSink {
    std::string sink;
    ssize_t operator()(const iovec* iov, int iov_count) {
      (void)iov_count;
      if (iov[0].iov_len == 0) return -EAGAIN;
      sink.push_back(*static_cast<const char*>(iov[0].iov_base));
      return 1;
    }
  } sink;
  ASSERT_TRUE(FlushSegmentsVia(sink, &wr, &wr_offset, segments.data(),
                               segments.size()));
  EXPECT_EQ(sink.sink, "queued" + Concatenated(segments));
  EXPECT_TRUE(wr.empty());
}

TEST(SegmentFlushTest, MoreSegmentsThanIovSlotsFlushesInMultipleCalls) {
  // Three pieces per segment and enough segments for more than two full
  // gathers (3 * n > 2 * kMaxFlushIov), so the gather loop must wrap
  // around and keep going from the cursor at least twice.
  const std::string payload = "PAY";
  const int n = 2 * kMaxFlushIov / 3 + 2;
  std::vector<ResponseSegment> segments;
  for (int i = 0; i < n; ++i) {
    segments.push_back(
        MakeSegment("t" + std::to_string(i), &payload, "|"));
  }
  std::string wr;
  size_t wr_offset = 0;
  ThrottledSink sink;
  ASSERT_TRUE(FlushSegmentsVia(sink, &wr, &wr_offset, segments.data(),
                               segments.size()));
  EXPECT_EQ(sink.sink, Concatenated(segments));
  EXPECT_TRUE(wr.empty());
  EXPECT_GE(sink.calls, 3);  // needed more than one gather
}

TEST(SegmentFlushTest, LargestBurstOfBorrowedHitsFlushesInOneCall) {
  // A burst holds at most 64 frames and 127 GET keys: each hit is three
  // pieces (header, borrowed payload, CRLF) and each get/gets adds an END
  // segment. Together with a queued wr tail that is one gather-write.
  const std::string payload(100, 'p');
  std::vector<ResponseSegment> segments;
  for (int i = 0; i < 127; ++i) {
    segments.push_back(MakeSegment("VALUE k 0 100\r\n", &payload, "\r\n"));
  }
  for (int i = 0; i < 64; ++i) {
    segments.push_back(MakeSegment("END\r\n", nullptr, ""));
  }
  std::string wr = "queued";
  size_t wr_offset = 0;
  ThrottledSink sink;
  ASSERT_TRUE(FlushSegmentsVia(sink, &wr, &wr_offset, segments.data(),
                               segments.size()));
  EXPECT_EQ(sink.sink, "queued" + Concatenated(segments));
  EXPECT_EQ(sink.calls, 1);
}

TEST(SegmentFlushTest, DeadSocketReportsFailure) {
  const std::string payload = "zz";
  std::vector<ResponseSegment> segments = {
      MakeSegment("a", &payload, "b")};
  std::string wr;
  size_t wr_offset = 0;
  ThrottledSink sink;
  sink.fail_errno = EPIPE;
  EXPECT_FALSE(FlushSegmentsVia(sink, &wr, &wr_offset, segments.data(),
                                segments.size()));
}

TEST(SegmentFlushTest, EmptyPiecesAndEmptyInputAreNoops) {
  std::string wr;
  size_t wr_offset = 0;
  ThrottledSink sink;
  ASSERT_TRUE(FlushSegmentsVia(sink, &wr, &wr_offset, nullptr, 0));
  EXPECT_TRUE(sink.sink.empty());
  EXPECT_EQ(sink.calls, 0);

  std::vector<ResponseSegment> segments = {
      MakeSegment("", nullptr, ""), MakeSegment("only", nullptr, "")};
  ASSERT_TRUE(FlushSegmentsVia(sink, &wr, &wr_offset, segments.data(),
                               segments.size()));
  EXPECT_EQ(sink.sink, "only");
}

}  // namespace
}  // namespace net
}  // namespace cliffhanger
