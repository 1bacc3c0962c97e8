// Simulated network graph: nodes joined by point-to-point links.
//
// Nodes exchange wire-format IPv6 packets (pkt::Bytes). Links model
// propagation latency, serialization delay (bit rate) and random loss, and
// keep per-direction traffic counters — the routing-loop amplification
// experiments read those counters directly.
//
// Packet delivery has one path. Each (link, direction) channel holds its
// in-flight packets sorted by key (arrival stamp, transmit seq); the seq is
// reserved from the event loop at transmit, the one a per-packet event
// would have taken. One kEventChannelDrain event under the head's key
// stands for the channel, and a drain delivers a train of packets,
// advancing the clock to each stamp. Trains differ only in length:
//
//  * Exact order: take the next packet only while its key precedes the
//    queue head — per-packet (when, seq) order, tie for tie. Used whenever
//    anything observes order: packet tracing, a delivery tracer,
//    sequential-RNG link loss, serialization queues, a time_sensitive()
//    node, or a declared order observer (set_order_observed).
//
//  * Free running, when bulk_mode() says nothing observes order: deliver
//    the whole backlog up to the loop's bulk horizon. Cross-channel ties
//    are then the only freedom, and only order-insensitive nodes see it.
//    Fault verdicts are keyed off (link, bytes, attempt, stamp), so
//    drop/corrupt/flap dials batch; duplication and jitter reorder
//    arrivals within a link, so those links keep exact order.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "netbase/random.h"
#include "packet/packet.h"
#include "sim/event_loop.h"
#include "sim/faults.h"

namespace xmap::sim {

inline constexpr NodeId kInvalidNode = ~NodeId{0};

class Network;

// Base class for everything attached to the network (routers, hosts, the
// scanner itself).
class Node {
 public:
  virtual ~Node() = default;

  // Called when a packet arrives on interface `iface` (per-node numbering in
  // order of connect() calls). The packet is handed over by value so
  // forwarding nodes can patch it in place and move it onward without a
  // per-hop copy.
  virtual void receive(pkt::Bytes packet, int iface) = 0;

  // Free-running eligibility. Return false when this node's observable
  // behaviour is a pure function of each packet's bytes and arrival
  // timestamp (counters that only ever sum are fine). Return true (the
  // conservative default) when behaviour depends on the interleaving of
  // packets across different links — e.g. a token-bucket rate limiter, or
  // a provisioning protocol whose allocations follow request order. One
  // time-sensitive node pins the whole network to exact-order delivery.
  [[nodiscard]] virtual bool time_sensitive() const { return true; }

  // Called when a timer armed by schedule_timer() fires, with its tag; the
  // clock reads the timer's timestamp.
  virtual void on_timer(std::uint64_t /*tag*/) {}

  // Called once before event processing starts (and again after topology
  // changes). Hook for deferred setup that would otherwise run lazily
  // inside the measured hot path — routers compile their LC-trie
  // forwarding index here. Must not schedule events or send packets.
  virtual void prepare_run() {}

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] Network* network() const { return network_; }
  [[nodiscard]] int interface_count() const { return interface_count_; }

 protected:
  // Sends a packet out of one of this node's interfaces.
  void send(int iface, pkt::Bytes packet);

  // Arms on_timer(tag) at `when` (>= now), keyed like any other event.
  void schedule_timer(SimTime when, std::uint64_t tag);
  // The same under a seq reserved earlier (EventLoop::reserve_seqs), so a
  // train that stops re-arms exactly where its next item's event would
  // have been dispatched.
  void schedule_reserved_timer(SimTime when, std::uint64_t seq,
                               std::uint64_t tag);

 private:
  friend class Network;
  Network* network_ = nullptr;
  NodeId id_ = kInvalidNode;
  int interface_count_ = 0;
};

struct LinkParams {
  SimTime latency = 100 * kMicrosecond;  // one-way propagation
  double loss = 0.0;                     // per-packet drop probability
  // Serialization rate in bits per simulated second; 0 = infinite.
  std::uint64_t rate_bps = 0;
  // Fault-plan scope: which LinkFaultParams of an installed FaultPlan
  // applies to this link (builders tag core vs access tiers).
  LinkClass fault_class = LinkClass::kOther;
};

struct LinkStats {
  std::uint64_t packets_ab = 0;  // delivered a -> b
  std::uint64_t packets_ba = 0;
  std::uint64_t bytes_ab = 0;
  std::uint64_t bytes_ba = 0;
  std::uint64_t dropped = 0;

  [[nodiscard]] std::uint64_t packets_total() const {
    return packets_ab + packets_ba;
  }
};

class Network {
 public:
  explicit Network(std::uint64_t seed = 1) : rng_(seed), seed_(seed) {
    loop_.register_handler(kEventTimer, this, &Network::on_timer_event);
    loop_.register_handler(kEventChannelDrain, this, &Network::on_drain_event);
  }
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] EventLoop& loop() { return loop_; }
  [[nodiscard]] SimTime now() const { return loop_.now(); }

  // Takes ownership; returns the node for convenience.
  template <typename T>
  T* add_node(std::unique_ptr<T> node) {
    T* raw = node.get();
    raw->network_ = this;
    raw->id_ = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(std::move(node));
    bulk_cached_ = -1;
    run_prepared_ = false;
    return raw;
  }
  template <typename T, typename... Args>
  T* make_node(Args&&... args) {
    return add_node(std::make_unique<T>(std::forward<Args>(args)...));
  }

  [[nodiscard]] Node* node(NodeId id) const { return nodes_[id].get(); }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  // Connects two nodes; allocates the next interface index on each side and
  // returns {link id, iface on a, iface on b}.
  struct Attachment {
    LinkId link;
    int iface_a;
    int iface_b;
  };
  Attachment connect(NodeId a, NodeId b, const LinkParams& params = {});

  [[nodiscard]] const LinkStats& link_stats(LinkId id) const {
    return links_[id].stats;
  }
  void reset_link_stats(LinkId id) { links_[id].stats = LinkStats{}; }

  // Runs the event loop to completion (bounded by max_events as a backstop).
  void run(std::uint64_t max_events = ~std::uint64_t{0}) {
    assert_confined();
    prepare();
    loop_.run(max_events);
  }
  void run_until(SimTime deadline) {
    assert_confined();
    prepare();
    loop_.run_until(deadline);
  }

  // Gives every node its prepare_run() callback (route-table compiles and
  // similar deferred setup). run()/run_until() call this automatically the
  // first time after a topology change; benchmarks call it explicitly so
  // setup cost stays out of the timed region.
  void prepare() {
    if (run_prepared_) return;
    run_prepared_ = true;
    for (const auto& node : nodes_) node->prepare_run();
  }

  // A Network (and everything attached to it) is thread-confined: there is
  // no internal locking, so one thread must own all event processing. The
  // parallel engine gives each worker thread its own deterministic replica.
  // The owner is captured on the first run()/run_until() call; debug builds
  // assert on cross-thread use.
  void assert_confined() {
#ifndef NDEBUG
    if (owner_ == std::thread::id{}) owner_ = std::this_thread::get_id();
    assert(owner_ == std::this_thread::get_id() &&
           "sim::Network used from a second thread (not thread-safe)");
#endif
  }

  [[nodiscard]] std::uint64_t packets_delivered() const {
    return packets_delivered_;
  }

  // True when nothing attached observes cross-channel delivery order, so
  // channel drains may run free (recomputed lazily after any topology,
  // fault or observability change).
  [[nodiscard]] bool bulk_mode() {
    if (bulk_cached_ < 0) refresh_mode();
    return bulk_cached_ != 0;
  }
  // Declares that something observes event-processing order, not just
  // event stamps — today a checkpoint hook, whose "every record below the
  // cursor is in hand" claim needs exact (when, seq) processing. While set,
  // every train runs in exact order; stamps are analytic either way, so
  // stamped outputs are identical.
  void set_order_observed(bool observed) { order_observed_ = observed; }
  // The train rule for anything not bound to a fault-dialled link: free
  // running in bulk mode without an order observer, exact order otherwise.
  [[nodiscard]] bool free_running() {
    return bulk_mode() && !order_observed_;
  }

  // Delivery tracer: called for every delivered packet (after loss, at
  // arrival time) — a pcap-style tap for debugging and the examples.
  // Pass nullptr to disable. Forces exact-order delivery.
  using Tracer = std::function<void(SimTime when, NodeId from, NodeId to,
                                    const pkt::Bytes& packet)>;
  void set_tracer(Tracer tracer) {
    tracer_ = std::move(tracer);
    bulk_cached_ = -1;
  }

  // Installs (or replaces) the fault-injection layer. A plan with
  // seed == 0 inherits the network seed, so one seed still pins the whole
  // run. Returns the injector for silent-candidate registration.
  FaultInjector* install_faults(const FaultPlan& plan) {
    faults_ = std::make_unique<FaultInjector>(plan, seed_);
    faults_->set_obs(trace_, metrics_);
    bulk_cached_ = -1;
    return faults_.get();
  }
  [[nodiscard]] FaultInjector* faults() const { return faults_.get(); }

  // Attaches observability sinks (caller-owned, thread-confined with this
  // network). At packet trace level every delivery emits a "packet_hop"
  // event stamped with the sim clock; ICMPv6 rate-limiter suppressions
  // reported by devices via note_icmp_rate_limited() are counted and
  // traced. Propagates to the installed fault injector (and to any
  // installed later).
  void set_obs(obs::TraceBuffer* trace, obs::MetricsShard* metrics) {
    trace_ = trace;
    metrics_ = metrics;
    delivered_cell_ =
        metrics != nullptr
            ? metrics->counter("sim_packets_delivered", {},
                               "Packets delivered by the simulated substrate")
            : nullptr;
    icmp_limited_cell_ =
        metrics != nullptr
            ? metrics->counter(
                  "icmp_rate_limited", {},
                  "ICMPv6 errors suppressed by device token buckets")
            : nullptr;
    clamped_cell_ =
        metrics != nullptr
            ? metrics->counter("sim_events_clamped_total", {},
                               "Events scheduled into the past and clamped "
                               "to now (latent determinism bug)")
            : nullptr;
    loop_.set_clamp_cell(clamped_cell_);
    if (faults_) faults_->set_obs(trace, metrics);
    bulk_cached_ = -1;
  }

  // Called by device nodes when their RFC 4443 ICMPv6 token bucket denies
  // an error transmission.
  void note_icmp_rate_limited(NodeId node) {
    if (icmp_limited_cell_ != nullptr) ++*icmp_limited_cell_;
    if (trace_ != nullptr && trace_->at(obs::TraceLevel::kPacket)) {
      obs::TraceEvent e;
      e.ts = loop_.now();
      e.name = "icmp_rate_limited";
      e.cat = "net";
      e.i0 = {"node", node};
      trace_->add(e);
    }
  }

 private:
  friend class Node;

  struct Endpoint {
    NodeId node = kInvalidNode;
    int iface = -1;
  };
  struct Link {
    Endpoint a;
    Endpoint b;
    LinkParams params;
    LinkStats stats;
    SimTime next_free_ab = 0;  // transmit-queue model per direction
    SimTime next_free_ba = 0;
  };

  // One in-flight packet: its key (arrival stamp, transmit seq).
  struct ChanItem {
    SimTime stamp;
    std::uint64_t seq;
    pkt::Bytes bytes;
  };
  // A (link, direction) channel with packets in flight: `items[head..)`
  // sorted by key. The head item always has a drain event under its own
  // key; a drain whose seq is no longer the head's was superseded and does
  // nothing. Channel index = link * 2 + direction (0 = a->b, 1 = b->a).
  struct Channel {
    net::PoolVector<ChanItem> items;
    std::uint32_t head = 0;
  };
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  // Routes a transmit request from (node, iface) onto its link.
  void transmit(NodeId from, int iface, pkt::Bytes packet);

  // Delivery tail: silent-node check, counters, trace, hand the packet to
  // the destination node. `chan` encodes (link, direction); the loop
  // clock equals `when` on entry.
  void deliver_one(std::uint32_t chan, SimTime when, pkt::Bytes packet);

  // Reserves the packet's transmit seq, inserts it by key (jitter or
  // interleaved trains can queue a later stamp first) and arms a drain if
  // it became the head.
  void chan_append(std::uint32_t chan, SimTime stamp, pkt::Bytes packet);

  static void on_timer_event(void* ctx, SimTime when, std::uint64_t a,
                             std::uint64_t b);
  static void on_drain_event(void* ctx, SimTime when, std::uint64_t a,
                             std::uint64_t b);

  // Recomputes bulk_mode() and the per-link exact-order flags, and sizes
  // the channel slot table.
  void refresh_mode();

  EventLoop loop_;
  net::Rng rng_;
  std::uint64_t seed_ = 1;
  Tracer tracer_;
  obs::TraceBuffer* trace_ = nullptr;
  obs::MetricsShard* metrics_ = nullptr;
  std::uint64_t* delivered_cell_ = nullptr;
  std::uint64_t* icmp_limited_cell_ = nullptr;
  std::uint64_t* clamped_cell_ = nullptr;
  std::unique_ptr<FaultInjector> faults_;
#ifndef NDEBUG
  std::thread::id owner_{};  // set by the first run(); see assert_confined()
#endif
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<Link> links_;
  // node_links_[node][iface] == link id (interfaces are dense per node).
  std::vector<std::vector<LinkId>> node_links_;
  std::uint64_t packets_delivered_ = 0;

  // Delivery state, pool-backed so the lazy refresh inside run() stays off
  // the global heap. Only channels with packets in flight hold storage:
  // chan_slot_ (2 per link) indexes active_, or is kNoSlot while idle; an
  // emptied channel goes back with its capacity. So memory follows the
  // packets in flight, not the link count.
  net::PoolVector<std::uint32_t> chan_slot_;
  net::PoolSlab<Channel> active_;
  net::PoolVector<std::uint8_t> link_exact_;  // duplicate/jitter dials
  bool run_prepared_ = false;
  bool order_observed_ = false;
  int bulk_cached_ = -1;  // -1 unknown, else 0/1
};

inline void Node::send(int iface, pkt::Bytes packet) {
  network_->transmit(id_, iface, std::move(packet));
}

inline void Node::schedule_timer(SimTime when, std::uint64_t tag) {
  network_->loop_.schedule_event(when, kEventTimer, id_, tag);
}

inline void Node::schedule_reserved_timer(SimTime when, std::uint64_t seq,
                                          std::uint64_t tag) {
  network_->loop_.schedule_reserved(when, seq, kEventTimer, id_, tag);
}

}  // namespace xmap::sim
