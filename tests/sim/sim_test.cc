#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "netbase/random.h"
#include "packet/packet.h"
#include "sim/event_loop.h"
#include "sim/network.h"

namespace xmap::sim {
namespace {

using net::Ipv6Address;

// Test-local typed-event handler: payload `a` indexes a table of actions
// the test owns. A deque, so scheduling from inside a running action never
// moves the action being run.
constexpr std::uint32_t kActionKind = kEventFirstFree;

struct Actions {
  explicit Actions(EventLoop& l) : loop(l) {
    loop.register_handler(kActionKind, this, &Actions::handle);
  }
  void at(SimTime when, std::function<void()> fn) {
    fns.push_back(std::move(fn));
    loop.schedule_event(when, kActionKind, fns.size() - 1, 0);
  }
  void after(SimTime delay, std::function<void()> fn) {
    at(loop.now() + delay, std::move(fn));
  }
  static void handle(void* ctx, SimTime /*when*/, std::uint64_t a,
                     std::uint64_t /*b*/) {
    static_cast<Actions*>(ctx)->fns[a]();
  }

  EventLoop& loop;
  std::deque<std::function<void()>> fns;
};

TEST(EventLoop, RunsInTimestampOrder) {
  EventLoop loop;
  Actions act{loop};
  std::vector<int> order;
  act.after(30, [&] { order.push_back(3); });
  act.after(10, [&] { order.push_back(1); });
  act.after(20, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30u);
  EXPECT_EQ(loop.events_processed(), 3u);
}

TEST(EventLoop, FifoTieBreakForEqualTimes) {
  EventLoop loop;
  Actions act{loop};
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) act.at(100, [&order, i] { order.push_back(i); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, NestedSchedulingAdvancesClock) {
  EventLoop loop;
  Actions act{loop};
  SimTime seen = 0;
  act.after(10, [&] { act.after(5, [&] { seen = loop.now(); }); });
  loop.run();
  EXPECT_EQ(seen, 15u);
}

TEST(EventLoop, PastEventsClampToNow) {
  // Scheduling into the past is a latent determinism bug in the caller:
  // debug builds trap on the assert, release builds clamp to now() and
  // expose the count (wired to sim_events_clamped_total by Network).
  auto schedule_past = [](EventLoop& loop) {
    Actions act{loop};
    act.after(100, [&] { act.at(10, [] {}); });
    loop.run();
  };
#ifdef NDEBUG
  EventLoop loop;
  EXPECT_EQ(loop.clamped(), 0u);
  schedule_past(loop);
  EXPECT_EQ(loop.now(), 100u);
  EXPECT_EQ(loop.clamped(), 1u);
#else
  EXPECT_DEATH(
      {
        EventLoop loop;
        schedule_past(loop);
      },
      "scheduled in the past");
#endif
}

TEST(EventLoop, BeforeHeadComparesKeysWithoutMovingTheCursor) {
  // A train asks mid-dispatch, when its own wheel slot may already be
  // empty: the head is then the next occupied slot or an overflow entry,
  // and asking must not move the cursor past events scheduled afterwards.
  EventLoop loop;
  Actions act{loop};
  std::vector<int> order;
  constexpr SimTime kNear = 100 * 1024;        // another wheel slot
  constexpr SimTime kFar = 20 * kMillisecond;  // overflow heap
  std::uint64_t reserved = 0;
  act.at(0, [&] {  // seq 0
    EXPECT_TRUE(loop.before_head(kNear - 1, ~std::uint64_t{0}));
    EXPECT_TRUE(loop.before_head(kNear, 0));  // same stamp, lower seq
    EXPECT_FALSE(loop.before_head(kNear, 2));
    reserved = loop.reserve_seqs(1);  // seq 3
    act.at(kNear / 2, [&] { order.push_back(5); });
  });
  act.at(kNear, [&] {  // seq 1
    order.push_back(1);
    EXPECT_TRUE(loop.before_head(kFar - 1, ~std::uint64_t{0}));
    EXPECT_FALSE(loop.before_head(kFar + 1, 0));
    act.at(kFar, [&] { order.push_back(4); });
    // Scheduled last, yet its reserved seq puts it before the event above.
    loop.schedule_reserved(kFar, reserved, kActionKind, act.fns.size(), 0);
    act.fns.emplace_back([&] { order.push_back(3); });
    EXPECT_FALSE(loop.before_head(kFar, reserved));
  });
  act.at(kFar, [&] { order.push_back(2); });  // seq 2
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{5, 1, 2, 3, 4}));
  EXPECT_TRUE(loop.before_head(0, 0));  // empty queue
}

// Records every dispatched id so pop order can be compared to a sorted
// reference. Ids arrive via typed-event payload `a`.
struct PopRecorder {
  std::vector<int> popped;
  static void handle(void* ctx, SimTime /*when*/, std::uint64_t a,
                     std::uint64_t /*b*/) {
    static_cast<PopRecorder*>(ctx)->popped.push_back(static_cast<int>(a));
  }
};

TEST(EventLoop, WheelPopOrderMatchesHeapReference) {
  // Property: whatever mix of in-wheel, tied, far-future (overflow heap)
  // and nested schedules arrives, pop order equals the (when, seq) sort a
  // reference heap would produce — seq being global schedule order, so
  // equal timestamps dispatch FIFO. Random streams cross the wheel span
  // (4096 slots x 1024 ns) to force overflow parking and migration, and
  // run_until() cuts land mid-slot to test deadline re-entry.
  constexpr std::uint32_t kRecordKind = kActionKind + 1;
  net::Rng rng{0x8e11};
  for (int round = 0; round < 25; ++round) {
    EventLoop loop;
    Actions act{loop};
    PopRecorder rec;
    loop.register_handler(kRecordKind, &rec, &PopRecorder::handle);
    std::vector<std::pair<SimTime, int>> ref;  // (when, id) in schedule order
    int next_id = 0;
    SimTime max_when = 0;
    auto schedule = [&](SimTime when) {
      ref.emplace_back(when, next_id);
      max_when = std::max(max_when, when);
      // Alternate two handler kinds: both must obey the same ordering
      // contract.
      if (next_id % 2 == 0) {
        const int id = next_id;
        act.at(when, [&rec, id] { rec.popped.push_back(id); });
      } else {
        loop.schedule_event(when, kRecordKind,
                            static_cast<std::uint64_t>(next_id), 0);
      }
      ++next_id;
    };
    const std::uint64_t kinds = 3 + rng.uniform(3);
    for (int i = 0; i < 400; ++i) {
      const std::uint64_t pick = rng.uniform(kinds);
      if (pick == 0) {
        // Tie cluster: timestamps rounded to a coarse grid.
        schedule(64 * rng.uniform(64));
      } else if (pick == 1) {
        // Far future: multiple wheel revolutions out, lands in the
        // overflow heap and must migrate back in order.
        schedule(4096 * 1024 + rng.uniform(64u * 1024 * 1024));
      } else {
        schedule(rng.uniform(4096 * 1024));
      }
    }
    // Nested: a handful of events schedule follow-ups relative to their own
    // dispatch time, including zero-delay (same timestamp, later seq).
    for (int i = 0; i < 20; ++i) {
      const SimTime base = rng.uniform(4096 * 1024);
      const SimTime delay = (i % 4 == 0) ? 0 : rng.uniform(512 * 1024);
      ref.emplace_back(base, next_id);
      const int outer = next_id++;
      // The follow-up's seq is assigned at dispatch time, which is exactly
      // when the reference learns about it too (appended mid-drain below).
      act.at(base, [&, outer, delay] {
        rec.popped.push_back(outer);
        ref.emplace_back(loop.now() + delay, next_id);
        max_when = std::max(max_when, loop.now() + delay);
        const int inner = next_id++;
        act.at(loop.now() + delay,
               [&rec, inner] { rec.popped.push_back(inner); });
      });
    }
    // Drain in run_until() chunks with deadlines landing anywhere,
    // including mid-slot and inside tie clusters, then finish with run().
    SimTime deadline = 0;
    for (int cut = 0; cut < 6; ++cut) {
      deadline += rng.uniform(max_when / 4 + 1);
      loop.run_until(deadline);
    }
    loop.run();
    // Reference order: stable sort on when; ref holds schedule order, so
    // stability reproduces the FIFO seq tie-break.
    std::stable_sort(ref.begin(), ref.end(),
                     [](const auto& x, const auto& y) {
                       return x.first < y.first;
                     });
    ASSERT_EQ(rec.popped.size(), ref.size()) << "round=" << round;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(rec.popped[i], ref[i].second)
          << "round=" << round << " pos=" << i;
    }
  }
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  Actions act{loop};
  int ran = 0;
  act.at(10, [&] { ++ran; });
  act.at(20, [&] { ++ran; });
  act.at(30, [&] { ++ran; });
  loop.run_until(20);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(loop.now(), 20u);
  loop.run();
  EXPECT_EQ(ran, 3);
}

TEST(EventLoop, MaxEventsBudget) {
  EventLoop loop;
  Actions act{loop};
  int ran = 0;
  for (int i = 0; i < 10; ++i) act.at(i, [&] { ++ran; });
  loop.run(4);
  EXPECT_EQ(ran, 4);
}

// A node that records everything it receives.
class SinkNode : public Node {
 public:
  void receive(pkt::Bytes packet, int iface) override {
    received.push_back({packet, iface, network()->now()});
  }
  struct Rx {
    pkt::Bytes packet;
    int iface;
    SimTime at;
  };
  std::vector<Rx> received;
};

// A node that sends a fixed packet when poked.
class SourceNode : public Node {
 public:
  void receive(pkt::Bytes, int) override {}
  void emit(int iface, pkt::Bytes p) { send(iface, std::move(p)); }
};

pkt::Bytes test_packet(std::size_t payload = 0) {
  return pkt::build_echo_request(*Ipv6Address::parse("2001:db8::1"),
                                 *Ipv6Address::parse("2001:db8::2"), 64, 1, 1,
                                 std::vector<std::uint8_t>(payload));
}

TEST(Network, DeliversAcrossLink) {
  Network net{1};
  auto* src = net.make_node<SourceNode>();
  auto* dst = net.make_node<SinkNode>();
  LinkParams params;
  params.latency = 5 * kMillisecond;
  auto att = net.connect(src->id(), dst->id(), params);
  src->emit(att.iface_a, test_packet());
  net.run();
  ASSERT_EQ(dst->received.size(), 1u);
  EXPECT_EQ(dst->received[0].at, 5 * kMillisecond);
  EXPECT_EQ(dst->received[0].iface, att.iface_b);
}

TEST(Network, BidirectionalInterfaces) {
  Network net{1};
  auto* a = net.make_node<SourceNode>();
  auto* b = net.make_node<SinkNode>();
  auto att = net.connect(a->id(), b->id());
  // Also connect b->a to exercise reply direction via a second sink.
  a->emit(att.iface_a, test_packet());
  net.run();
  ASSERT_EQ(b->received.size(), 1u);
  EXPECT_EQ(net.link_stats(att.link).packets_ab, 1u);
  EXPECT_EQ(net.link_stats(att.link).packets_ba, 0u);
}

TEST(Network, MultipleLinksGetDistinctInterfaces) {
  Network net{1};
  auto* hub = net.make_node<SourceNode>();
  auto* s1 = net.make_node<SinkNode>();
  auto* s2 = net.make_node<SinkNode>();
  auto att1 = net.connect(hub->id(), s1->id());
  auto att2 = net.connect(hub->id(), s2->id());
  EXPECT_NE(att1.iface_a, att2.iface_a);
  hub->emit(att2.iface_a, test_packet());
  net.run();
  EXPECT_TRUE(s1->received.empty());
  ASSERT_EQ(s2->received.size(), 1u);
}

TEST(Network, SerializationDelayQueues) {
  Network net{1};
  auto* src = net.make_node<SourceNode>();
  auto* dst = net.make_node<SinkNode>();
  LinkParams params;
  params.latency = 0;
  params.rate_bps = 8000;  // 1000 bytes/sec
  auto att = net.connect(src->id(), dst->id(), params);
  const pkt::Bytes p = test_packet(52);  // 40 + 8 + 4 + 52 = 104 bytes
  const SimTime ser = static_cast<SimTime>(p.size()) * 8 * kSecond / 8000;
  src->emit(att.iface_a, p);
  src->emit(att.iface_a, p);  // queued behind the first
  net.run();
  ASSERT_EQ(dst->received.size(), 2u);
  EXPECT_EQ(dst->received[0].at, ser);
  EXPECT_EQ(dst->received[1].at, 2 * ser);
}

TEST(Network, LossDropsDeterministically) {
  Network net{12345};
  auto* src = net.make_node<SourceNode>();
  auto* dst = net.make_node<SinkNode>();
  LinkParams params;
  params.loss = 0.5;
  auto att = net.connect(src->id(), dst->id(), params);
  for (int i = 0; i < 1000; ++i) src->emit(att.iface_a, test_packet());
  net.run();
  const auto& stats = net.link_stats(att.link);
  EXPECT_EQ(stats.packets_ab + stats.dropped, 1000u);
  EXPECT_NEAR(static_cast<double>(stats.dropped), 500.0, 60.0);
  EXPECT_EQ(dst->received.size(), stats.packets_ab);
}

TEST(Network, LinkStatsCountBytesBothDirections) {
  Network net{1};
  auto* a = net.make_node<SourceNode>();
  auto* b = net.make_node<SourceNode>();
  auto att = net.connect(a->id(), b->id());
  const pkt::Bytes p = test_packet();
  a->emit(att.iface_a, p);
  b->emit(att.iface_b, p);
  net.run();
  const auto& stats = net.link_stats(att.link);
  EXPECT_EQ(stats.packets_ab, 1u);
  EXPECT_EQ(stats.packets_ba, 1u);
  EXPECT_EQ(stats.bytes_ab, p.size());
  EXPECT_EQ(stats.bytes_ba, p.size());
  EXPECT_EQ(stats.packets_total(), 2u);
}

TEST(Network, ResetLinkStats) {
  Network net{1};
  auto* a = net.make_node<SourceNode>();
  auto* b = net.make_node<SinkNode>();
  auto att = net.connect(a->id(), b->id());
  a->emit(att.iface_a, test_packet());
  net.run();
  net.reset_link_stats(att.link);
  EXPECT_EQ(net.link_stats(att.link).packets_total(), 0u);
}

TEST(Network, TracerSeesEveryDelivery) {
  Network net{1};
  auto* src = net.make_node<SourceNode>();
  auto* dst = net.make_node<SinkNode>();
  auto att = net.connect(src->id(), dst->id());
  std::vector<std::pair<NodeId, NodeId>> seen;
  net.set_tracer([&seen](SimTime, NodeId from, NodeId to, const pkt::Bytes&) {
    seen.emplace_back(from, to);
  });
  src->emit(att.iface_a, test_packet());
  src->emit(att.iface_a, test_packet());
  net.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, src->id());
  EXPECT_EQ(seen[0].second, dst->id());
  // Disable and confirm silence.
  net.set_tracer(nullptr);
  src->emit(att.iface_a, test_packet());
  net.run();
  EXPECT_EQ(seen.size(), 2u);
}

TEST(Network, SendOnUnconnectedInterfaceIsDropped) {
  Network net{1};
  auto* a = net.make_node<SourceNode>();
  a->emit(99, test_packet());  // no such interface
  net.run();
  EXPECT_EQ(net.packets_delivered(), 0u);
}

// Sends scripted echo requests from node timers: each at() arms one timer
// whose tag indexes the script; the echo sequence number is the packet id.
class ScriptedSource : public Node {
 public:
  void receive(pkt::Bytes, int) override {}
  void at(SimTime when, std::uint16_t id) {
    ids_.push_back(id);
    schedule_timer(when, ids_.size() - 1);
  }
  void on_timer(std::uint64_t tag) override {
    send(0, scripted_packet(ids_[tag]));
  }
  static pkt::Bytes scripted_packet(std::uint16_t id) {
    return pkt::build_echo_request(*Ipv6Address::parse("2001:db8::1"),
                                   *Ipv6Address::parse("2001:db8::2"), 64, 1,
                                   id);
  }

 private:
  std::vector<std::uint16_t> ids_;
};

TEST(Network, ExactOrderDeliveryMatchesHandWrittenOracle) {
  // Outside truth for exact-order trains: a time-sensitive sink fed by
  // three 10 us links — one duplicating every packet (the copy lands 1 us
  // later), one jittering, one clean — must see packets in (arrival stamp,
  // transmit order), ties across links included, and a run_until cut in
  // the middle of a channel's train must stop exactly at the deadline.
  Network net{1};
  auto* dup = net.make_node<ScriptedSource>();
  auto* jit = net.make_node<ScriptedSource>();
  auto* plain = net.make_node<ScriptedSource>();
  auto* sink = net.make_node<SinkNode>();  // time_sensitive(): exact order
  LinkParams link;
  link.latency = 10 * kMicrosecond;
  link.fault_class = LinkClass::kAccess;
  net.connect(dup->id(), sink->id(), link);
  link.fault_class = LinkClass::kCore;
  const LinkId jit_link = net.connect(jit->id(), sink->id(), link).link;
  link.fault_class = LinkClass::kOther;
  net.connect(plain->id(), sink->id(), link);
  FaultPlan plan;
  plan.seed = 5;
  plan.access.duplicate = 1.0;
  plan.core.jitter_ms = 0.004;  // up to 4 us extra
  net.install_faults(plan);

  // The jitter link's keyed draws for ids 21..23: 2056, 260 and 610 ns,
  // so id 22 overtakes id 21. The fault model is not under test here; this
  // pins the stamps the oracle below is written against.
  FaultInjector model{plan, 1};
  const SimTime jitter[] = {2056, 260, 610};
  for (std::uint16_t id = 21; id <= 23; ++id) {
    ASSERT_EQ(model
                  .on_transmit(jit_link, LinkClass::kCore, 0,
                               ScriptedSource::scripted_packet(id))
                  .extra_delay,
              jitter[id - 21]);
  }

  // Timers at equal times fire in arming order, which is transmit order.
  dup->at(0, 1);
  plain->at(0, 31);
  jit->at(0, 21);
  plain->at(1 * kMicrosecond, 32);
  jit->at(1 * kMicrosecond, 22);
  dup->at(2 * kMicrosecond, 2);
  jit->at(2 * kMicrosecond, 23);
  dup->at(4 * kMicrosecond, 3);

  std::vector<std::pair<SimTime, int>> seen;
  net.set_tracer([&seen](SimTime when, NodeId, NodeId,
                         const pkt::Bytes& p) {
    pkt::Ipv6View ip{p};
    seen.emplace_back(when, pkt::Icmpv6View{ip.payload()}.seq());
  });
  // (arrival stamp ns, id), sorted by stamp, ties by transmit order:
  // at 10000 the duplicated id 1 was sent before id 31; at 11000 the copy
  // of id 1 (sent at 0, 1 us late) precedes id 32 (sent at 1 us).
  const std::vector<std::pair<SimTime, int>> oracle = {
      {10000, 1},  {10000, 31}, {11000, 1},  {11000, 32},
      {11260, 22}, {12000, 2},  {12056, 21}, {12610, 23},
      {13000, 2},  {14000, 3},  {15000, 3},
  };
  // Cut between id 2 (12000) and its copy (13000), mid-train on the
  // duplicating link's channel.
  net.run_until(12500);
  EXPECT_EQ(net.now(), 12500u);
  const std::vector<std::pair<SimTime, int>> before_cut(oracle.begin(),
                                                        oracle.begin() + 7);
  EXPECT_EQ(seen, before_cut);
  net.run();
  EXPECT_EQ(seen, oracle);
  EXPECT_EQ(net.loop().clamped(), 0u);
}

}  // namespace
}  // namespace xmap::sim
