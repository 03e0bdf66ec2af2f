// Unit tests for src/common: ids, time helpers, 5-tuples, RNG, statistics,
// sequence dedup windows, the little-endian wire codec.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/five_tuple.h"
#include "common/rng.h"
#include "common/seq_window.h"
#include "common/stats.h"
#include "common/types.h"
#include "common/wire.h"

namespace rpm {
namespace {

TEST(Types, TimeHelpers) {
  EXPECT_EQ(usec(1), 1'000);
  EXPECT_EQ(msec(1), 1'000'000);
  EXPECT_EQ(sec(1), 1'000'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(sec(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_usec(usec(7)), 7.0);
}

TEST(Types, IdsAreStronglyTyped) {
  const HostId h{3};
  const RnicId r{3};
  EXPECT_TRUE(h.valid());
  EXPECT_FALSE(HostId{}.valid());
  EXPECT_EQ(h, HostId{3});
  EXPECT_NE(h, HostId{4});
  // h == r must not compile; verified by the type system, not at runtime.
  static_assert(!std::is_same_v<HostId, RnicId>);
  (void)r;
}

TEST(Types, IdHashUsableInSets) {
  std::unordered_set<RnicId> s;
  s.insert(RnicId{1});
  s.insert(RnicId{1});
  s.insert(RnicId{2});
  EXPECT_EQ(s.size(), 2u);
}

TEST(Types, GbpsConversion) {
  EXPECT_DOUBLE_EQ(gbps_to_Bps(8.0), 1e9);
}

TEST(FiveTuple, DefaultsToRoceV2) {
  const FiveTuple t;
  EXPECT_EQ(t.dst_port, kRoceUdpPort);
  EXPECT_EQ(t.protocol, 17);
}

TEST(FiveTuple, EqualityAndHash) {
  FiveTuple a;
  a.src_ip = IpAddr{1};
  a.dst_ip = IpAddr{2};
  a.src_port = 1000;
  FiveTuple b = a;
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.stable_hash(), b.stable_hash());
  b.src_port = 1001;
  EXPECT_NE(a, b);
  EXPECT_NE(a.stable_hash(), b.stable_hash());
}

TEST(FiveTuple, HashSpreadsAcrossSourcePorts) {
  // ECMP quality depends on distinct source ports producing distinct hashes.
  FiveTuple t;
  t.src_ip = IpAddr{0x0A000001};
  t.dst_ip = IpAddr{0x0A000002};
  std::set<std::uint64_t> hashes;
  for (std::uint16_t p = 1000; p < 1256; ++p) {
    t.src_port = p;
    hashes.insert(t.stable_hash());
  }
  EXPECT_EQ(hashes.size(), 256u);
}

TEST(FiveTuple, ToStringFormat) {
  FiveTuple t;
  t.src_ip = IpAddr{0x0A000001};
  t.dst_ip = IpAddr{0x0A000002};
  t.src_port = 4242;
  EXPECT_EQ(t.to_string(), "10.0.0.1:4242->10.0.0.2:4791/p17");
}

TEST(Rng, Deterministic) {
  Rng a(5), b(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, UniformIntBounds) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
  EXPECT_THROW(r.uniform_int(2, 1), std::invalid_argument);
}

TEST(Rng, ChanceEdgeCases) {
  Rng r(1);
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_TRUE(r.chance(1.0));
  EXPECT_FALSE(r.chance(-1.0));
  EXPECT_TRUE(r.chance(2.0));
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng r(99);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += r.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng r(7);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += r.exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.3);
  EXPECT_THROW(r.exponential(0.0), std::invalid_argument);
}

TEST(Rng, ForkIndependentStreams) {
  Rng parent(3);
  Rng child = parent.fork();
  // Child diverges from parent.
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    any_diff |= parent.uniform_int(0, 1 << 30) != child.uniform_int(0, 1 << 30);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  r.shuffle(std::span<int>(v));
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(OnlineStats, Basics) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 6.0}) s.add(x);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(PercentileWindow, EmptyIsZero) {
  PercentileWindow w;
  EXPECT_DOUBLE_EQ(w.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(w.mean(), 0.0);
}

TEST(PercentileWindow, KnownQuantiles) {
  PercentileWindow w;
  for (int i = 1; i <= 100; ++i) w.add(i);
  EXPECT_NEAR(w.percentile(0.5), 50.0, 1.0);
  EXPECT_NEAR(w.percentile(0.99), 99.0, 1.0);
  EXPECT_NEAR(w.percentile(0.0), 1.0, 0.5);
  EXPECT_NEAR(w.percentile(1.0), 100.0, 0.5);
  EXPECT_DOUBLE_EQ(w.mean(), 50.5);
}

TEST(LogHistogram, PercentilesWithinBucketError) {
  LogHistogram h(1.0, 1e9);
  for (int i = 1; i <= 10000; ++i) h.add(static_cast<double>(i));
  EXPECT_EQ(h.count(), 10000u);
  // 4% bucket resolution.
  EXPECT_NEAR(h.percentile(0.5), 5000.0, 5000.0 * 0.08);
  EXPECT_NEAR(h.percentile(0.99), 9900.0, 9900.0 * 0.08);
}

TEST(LogHistogram, MergeAddsCounts) {
  LogHistogram a(1.0, 1e6), b(1.0, 1e6);
  a.add(10.0);
  b.add(1000.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
}

TEST(LogHistogram, RejectsInvalidBounds) {
  EXPECT_THROW(LogHistogram(0.0, 10.0), std::invalid_argument);
  EXPECT_THROW(LogHistogram(10.0, 10.0), std::invalid_argument);
}

TEST(LogHistogram, MergeRejectsShapeMismatch) {
  LogHistogram a(1.0, 1e6), b(1.0, 1e9);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

// ---- SeqWindow ----

/// Reference model: the set-based sliding window SeqWindow replaced. Seen
/// seqs in a std::set, rescanned on every new maximum.
struct SetWindow {
  explicit SetWindow(std::uint64_t w) : window(w) {}

  std::uint64_t window;
  std::uint64_t max_seq = 0;
  std::set<std::uint64_t> seen;

  bool accept(std::uint64_t seq) {
    if (seen.contains(seq) || (max_seq > window && seq < max_seq - window)) {
      return false;
    }
    seen.insert(seq);
    if (seq > max_seq) {
      max_seq = seq;
      if (max_seq > window) {
        const std::uint64_t floor = max_seq - window;
        std::erase_if(seen, [floor](std::uint64_t s) { return s < floor; });
      }
    }
    return true;
  }
};

/// Next seq to deliver, given the reference state.
using SeqGen = std::function<std::uint64_t(const SetWindow&, Rng&)>;

std::uint64_t back_off(std::uint64_t max_seq, std::uint64_t by) {
  return max_seq > by ? max_seq - by : 0;
}

/// Drive both windows through `steps` deliveries; every decision and every
/// remembered-seq list must agree.
void expect_same_as_reference(std::uint64_t window, const SeqGen& gen,
                              const std::string& name) {
  SCOPED_TRACE(name + " window=" + std::to_string(window));
  Rng rng(window * 7919 + name.size());
  SetWindow ref(window);
  SeqWindow win(window);
  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t seq = gen(ref, rng);
    ASSERT_EQ(win.accept(seq), ref.accept(seq)) << "step " << step
                                                << " seq " << seq;
    ASSERT_EQ(win.max_seq(), ref.max_seq);
    if (step % 7 == 0 || window < 100) {
      ASSERT_EQ(win.seen(), std::vector<std::uint64_t>(ref.seen.begin(),
                                                       ref.seen.end()))
          << "step " << step;
    }
  }
  // The checkpoint form round-trips: a restored window decides identically.
  SeqWindow restored(window);
  const std::vector<std::uint64_t> seen = win.seen();
  restored.restore(win.max_seq(), seen);
  EXPECT_EQ(restored.seen(), seen);
  for (int step = 0; step < 500; ++step) {
    const std::uint64_t seq = gen(ref, rng);
    const bool want = win.accept(seq);
    ASSERT_EQ(restored.accept(seq), want) << "post-restore seq " << seq;
    ASSERT_EQ(ref.accept(seq), want);
  }
  EXPECT_EQ(restored.seen(), win.seen());
}

TEST(SeqWindow, MatchesSetReferenceModel) {
  const std::vector<std::pair<std::string, SeqGen>> sequences = {
      {"in-order",
       [](const SetWindow& r, Rng&) {
         return r.seen.empty() ? 0 : r.max_seq + 1;
       }},
      {"repeats",
       [](const SetWindow& r, Rng& rng) {
         // Mostly re-deliveries of recent seqs, some fresh ones.
         if (rng.chance(0.3)) return r.max_seq + 1;
         return back_off(r.max_seq, static_cast<std::uint64_t>(
                                        rng.uniform_int(0, 3)));
       }},
      {"stale",
       [](const SetWindow& r, Rng& rng) {
         if (rng.chance(0.5)) return r.max_seq + 1;
         return back_off(r.max_seq,
                         r.window + static_cast<std::uint64_t>(
                                        rng.uniform_int(1, 50)));
       }},
      {"window-edge",
       [](const SetWindow& r, Rng& rng) {
         // Just inside, exactly at, and just outside the window floor.
         switch (rng.uniform_int(0, 3)) {
           case 0: return r.max_seq + 1;
           case 1: return back_off(r.max_seq, r.window);
           case 2: return back_off(r.max_seq, r.window + 1);
           default: return back_off(r.max_seq, back_off(r.window, 1));
         }
       }},
      {"jumps",
       [](const SetWindow& r, Rng& rng) {
         // Jumps of exactly the window, one past it, and far beyond it,
         // with re-deliveries behind each jump.
         switch (rng.uniform_int(0, 4)) {
           case 0: return r.max_seq + r.window;
           case 1: return r.max_seq + r.window + 1;
           case 2:
             return r.max_seq + r.window * 3 +
                    static_cast<std::uint64_t>(rng.uniform_int(1, 100));
           default:
             return back_off(r.max_seq, static_cast<std::uint64_t>(
                                            rng.uniform_int(0, 70)));
         }
       }},
      {"mixed",
       [](const SetWindow& r, Rng& rng) {
         return back_off(r.max_seq + 40,
                         static_cast<std::uint64_t>(rng.uniform_int(
                             0, static_cast<std::int64_t>(r.window) + 90)));
       }},
  };
  for (const std::uint64_t window : {1u, 63u, 64u, 1024u}) {
    for (const auto& [name, gen] : sequences) {
      expect_same_as_reference(window, gen, name);
    }
  }
}

TEST(SeqWindow, RestoreSkipsSeqsBelowTheWindow) {
  // Window 4 over max 10 is [6, 10]. Seq 3 is already out of it; restored
  // into the ring it would alias onto seq 8's slot and drop a fresh 8.
  SeqWindow win(4);
  const std::vector<std::uint64_t> seen = {3, 9, 10};
  win.restore(10, seen);
  EXPECT_EQ(win.seen(), (std::vector<std::uint64_t>{9, 10}));
  EXPECT_TRUE(win.accept(8));
  EXPECT_FALSE(win.accept(3));  // too old: still a duplicate
  EXPECT_FALSE(win.accept(9));
}

TEST(SeqWindow, RejectsSeqAboveMaxOnRestore) {
  SeqWindow win(4);
  const std::vector<std::uint64_t> seen = {9, 11};
  EXPECT_THROW(win.restore(10, seen), std::invalid_argument);
}

TEST(SeqWindow, RejectsWindowAboveTheMaximum) {
  EXPECT_THROW(SeqWindow(kMaxSeqWindow + 1), std::invalid_argument);
  SeqWindow largest(kMaxSeqWindow);
  EXPECT_TRUE(largest.accept(kMaxSeqWindow * 3));
  EXPECT_TRUE(largest.accept(kMaxSeqWindow * 2));  // exactly at the floor
  EXPECT_FALSE(largest.accept(kMaxSeqWindow * 2 - 1));
}

TEST(Wire, RoundTripsLittleEndian) {
  std::vector<std::uint8_t> buf;
  wire::put_u32(buf, 0x01020304u);
  wire::put_u64(buf, 0x1122334455667788ull);
  ASSERT_EQ(buf.size(), 12u);
  EXPECT_EQ(buf[0], 0x04);  // least significant byte first
  EXPECT_EQ(buf[4], 0x88);
  std::size_t off = 0;
  EXPECT_EQ(wire::get_u32(buf, off), 0x01020304u);
  EXPECT_EQ(wire::get_u64(buf, off), 0x1122334455667788ull);
  EXPECT_EQ(off, buf.size());
}

TEST(Wire, TruncatedReadsThrowAtEveryWidth) {
  // Every short length for each width throws and leaves the offset alone.
  for (std::size_t len = 0; len < 8; ++len) {
    const std::vector<std::uint8_t> buf(len, 0xab);
    std::size_t off = 0;
    if (len < 4) {
      EXPECT_THROW((void)wire::get_u32(buf, off), std::runtime_error) << len;
      EXPECT_EQ(off, 0u);
    }
    EXPECT_THROW((void)wire::get_u64(buf, off), std::runtime_error) << len;
    EXPECT_EQ(off, 0u);
  }
  // Reads that run off the end part-way through the buffer.
  const std::vector<std::uint8_t> buf(10, 0);
  std::size_t off = 7;
  EXPECT_THROW((void)wire::get_u32(buf, off), std::runtime_error);
  EXPECT_THROW((void)wire::get_u64(buf, off), std::runtime_error);
  off = 6;
  EXPECT_NO_THROW((void)wire::get_u32(buf, off));
  EXPECT_EQ(off, 10u);
}

TEST(Wire, HostileOffsetsCannotWrapTheBoundsCheck) {
  const std::vector<std::uint8_t> buf(16, 0);
  for (const std::size_t off0 :
       {std::size_t{17}, std::numeric_limits<std::size_t>::max(),
        std::numeric_limits<std::size_t>::max() - 3}) {
    std::size_t off = off0;
    EXPECT_THROW((void)wire::get_u32(buf, off), std::runtime_error);
    EXPECT_THROW((void)wire::get_u64(buf, off), std::runtime_error);
    EXPECT_EQ(off, off0);
  }
}

}  // namespace
}  // namespace rpm
