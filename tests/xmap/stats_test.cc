// ScanStats merge semantics: counters add exactly, send windows widen,
// idle blocks are identity elements — the properties the parallel
// executor's per-worker aggregation relies on.
#include "xmap/stats.h"

#include <gtest/gtest.h>

namespace xmap::scan {
namespace {

ScanStats sample(std::uint64_t base, sim::SimTime first, sim::SimTime last) {
  ScanStats s;
  s.targets_generated = base + 1;
  s.blocked = base + 2;
  s.sent = base + 3;
  s.received = base + 4;
  s.validated = base + 5;
  s.discarded = base + 6;
  s.provenance_misses = base + 7;
  s.first_send = first;
  s.last_send = last;
  return s;
}

TEST(ScanStats, MergeSumsEveryCounter) {
  ScanStats a = sample(100, 10, 20);
  const ScanStats b = sample(1000, 5, 40);
  a += b;
  EXPECT_EQ(a.targets_generated, 101u + 1001u);
  EXPECT_EQ(a.blocked, 102u + 1002u);
  EXPECT_EQ(a.sent, 103u + 1003u);
  EXPECT_EQ(a.received, 104u + 1004u);
  EXPECT_EQ(a.validated, 105u + 1005u);
  EXPECT_EQ(a.discarded, 106u + 1006u);
  EXPECT_EQ(a.provenance_misses, 107u + 1007u);
}

TEST(ScanStats, MergeWidensTheSendWindow) {
  ScanStats a = sample(0, 10, 20);
  a.merge(sample(0, 5, 40));
  EXPECT_EQ(a.first_send, 5u);
  EXPECT_EQ(a.last_send, 40u);

  ScanStats inner = sample(0, 12, 18);
  inner.merge(sample(0, 10, 30));
  EXPECT_EQ(inner.first_send, 10u);
  EXPECT_EQ(inner.last_send, 30u);
}

TEST(ScanStats, DefaultStatsAreAMergeIdentity) {
  const ScanStats active = sample(7, 100, 200);

  // idle += active adopts active's window instead of clamping to zero.
  ScanStats accumulated;
  accumulated += active;
  EXPECT_EQ(accumulated, active);

  // active += idle leaves the window untouched.
  ScanStats kept = active;
  kept += ScanStats{};
  EXPECT_EQ(kept, active);
}

TEST(ScanStats, MergeOfManyWorkersEqualsRunningTotal) {
  ScanStats total;
  std::uint64_t expect_sent = 0;
  for (std::uint64_t w = 0; w < 8; ++w) {
    total += sample(w * 10, 100 + w, 200 + w);
    expect_sent += w * 10 + 3;
  }
  EXPECT_EQ(total.sent, expect_sent);
  EXPECT_EQ(total.first_send, 100u);
  EXPECT_EQ(total.last_send, 207u);
}

TEST(ScanStats, HitRateFollowsMergedCounters) {
  ScanStats a;
  a.sent = 10;
  a.validated = 1;
  ScanStats b;
  b.sent = 10;
  b.validated = 3;
  a += b;
  EXPECT_DOUBLE_EQ(a.hit_rate(), 0.2);
  EXPECT_DOUBLE_EQ(ScanStats{}.hit_rate(), 0.0);
}

}  // namespace
}  // namespace xmap::scan
