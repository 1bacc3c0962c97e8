#include "sim/network.h"

namespace xmap::sim {

Network::Attachment Network::connect(NodeId a, NodeId b,
                                     const LinkParams& params) {
  if (node_links_.size() < nodes_.size()) node_links_.resize(nodes_.size());

  const LinkId id = static_cast<LinkId>(links_.size());
  Link link;
  link.a = {a, nodes_[a]->interface_count_++};
  link.b = {b, nodes_[b]->interface_count_++};
  link.params = params;
  links_.push_back(link);

  node_links_[a].push_back(id);
  node_links_[b].push_back(id);
  bulk_cached_ = -1;
  run_prepared_ = false;
  return {id, link.a.iface, link.b.iface};
}

// Train rules: see the delivery discussion in network.h. The per-link
// exact flags let a fault plan with duplication/jitter dials keep free
// running on every other link class.
void Network::refresh_mode() {
  bool ok = !tracer_ &&
            (trace_ == nullptr || !trace_->at(obs::TraceLevel::kPacket));
  if (ok) {
    for (const Link& link : links_) {
      if (link.params.loss > 0 || link.params.rate_bps > 0) {
        // Sequential-RNG loss and transmit-queue serialization both depend
        // on global transmit order; no per-link exception can save them.
        ok = false;
        break;
      }
    }
  }
  if (ok) {
    for (const auto& node : nodes_) {
      if (node->time_sensitive()) {
        ok = false;
        break;
      }
    }
  }
  link_exact_.assign(links_.size(), 0);
  if (faults_) {
    for (std::size_t i = 0; i < links_.size(); ++i) {
      const LinkFaultParams& p =
          faults_->params(links_[i].params.fault_class);
      if (p.duplicate > 0 || p.jitter_ms > 0) link_exact_[i] = 1;
    }
  }
  if (chan_slot_.size() < links_.size() * 2) {
    chan_slot_.resize(links_.size() * 2, kNoSlot);
  }
  bulk_cached_ = ok ? 1 : 0;
}

void Network::transmit(NodeId from, int iface, pkt::Bytes packet) {
  assert_confined();
  // Unplugged port or node with no links: packet silently dropped.
  if (from >= node_links_.size() || iface < 0 ||
      static_cast<std::size_t>(iface) >= node_links_[from].size()) {
    return;
  }
  const LinkId link_id = node_links_[from][static_cast<std::size_t>(iface)];
  Link& link = links_[link_id];
  const bool is_a = link.a.node == from && link.a.iface == iface;

  if (link.params.loss > 0 && rng_.bernoulli(link.params.loss)) {
    ++link.stats.dropped;
    return;
  }

  FaultInjector::Verdict verdict;
  if (faults_) {
    verdict = faults_->on_transmit(link_id, link.params.fault_class,
                                   loop_.now(), packet);
    if (verdict.drop) {
      ++link.stats.dropped;
      return;
    }
    if (verdict.corrupt && packet.size() > pkt::kIpv6HeaderSize) {
      // Flip a couple of bits in the delivered copy: enough to break the
      // upper-layer checksum without changing the packet length. Flips are
      // confined to the L4 payload — real-world flips that rewrite the IPv6
      // header (addresses, hop limit) die at the next hop's checks and are
      // indistinguishable from loss, which the loss dials already model;
      // letting them through would also let corruption re-aim or resurrect
      // packets caught in routing loops, turning the loop amplifier into an
      // unbounded event cascade when combined with duplication.
      const std::size_t span = packet.size() - pkt::kIpv6HeaderSize;
      std::uint64_t k = verdict.corrupt_key;
      const int flips = 1 + static_cast<int>(k % 3);
      for (int i = 0; i < flips; ++i) {
        k = net::mix64(k);
        packet[pkt::kIpv6HeaderSize + k % span] ^=
            static_cast<std::uint8_t>(1u << ((k >> 32) % 8));
      }
    }
  }

  const std::size_t size = packet.size();

  // Serialization delay: the sender's transmit queue frees up after
  // size*8/rate seconds; packets queue FIFO behind earlier ones.
  SimTime depart = loop_.now();
  if (link.params.rate_bps > 0) {
    SimTime& next_free = is_a ? link.next_free_ab : link.next_free_ba;
    const SimTime ser =
        static_cast<SimTime>(size) * 8 * kSecond / link.params.rate_bps;
    depart = std::max(depart, next_free);
    next_free = depart + ser;
    depart += ser;
  }
  const SimTime arrive = depart + link.params.latency + verdict.extra_delay;

  if (is_a) {
    ++link.stats.packets_ab;
    link.stats.bytes_ab += size;
  } else {
    ++link.stats.packets_ba;
    link.stats.bytes_ba += size;
  }

  if (bulk_cached_ < 0) refresh_mode();  // sizes the channel slot table
  const std::uint32_t chan =
      static_cast<std::uint32_t>(link_id) * 2 + (is_a ? 0u : 1u);
  if (verdict.duplicate) {
    chan_append(chan, arrive + kMicrosecond, packet);
  }
  chan_append(chan, arrive, std::move(packet));
}

void Network::chan_append(std::uint32_t chan, SimTime stamp,
                          pkt::Bytes packet) {
  assert(chan < chan_slot_.size());  // sized by refresh_mode()
  // The newest seq is the largest, so among equal stamps the packet goes
  // last: transmit-order FIFO, i.e. key order.
  const std::uint64_t seq = loop_.reserve_seqs(1);
  std::uint32_t& slot = chan_slot_[chan];
  if (slot == kNoSlot) slot = active_.acquire();
  Channel& c = active_[slot];
  if (c.head >= 64 && 2 * c.head >= c.items.size()) {
    // A channel that never drains empty (the vantage link of a fast scan)
    // drops its delivered prefix, amortized O(1) per packet.
    c.items.erase(c.items.begin(), c.items.begin() + c.head);
    c.head = 0;
  }
  if (c.items.size() > c.head && stamp < c.items.back().stamp) {
    auto pos = std::upper_bound(
        c.items.begin() + c.head, c.items.end(), stamp,
        [](SimTime s, const ChanItem& item) { return s < item.stamp; });
    c.items.insert(pos, ChanItem{stamp, seq, std::move(packet)});
  } else {
    c.items.push_back(ChanItem{stamp, seq, std::move(packet)});
  }
  if (c.items[c.head].seq == seq) {
    loop_.schedule_reserved(stamp, seq, kEventChannelDrain, chan, seq);
  }
}

void Network::on_timer_event(void* ctx, SimTime /*when*/, std::uint64_t a,
                             std::uint64_t b) {
  static_cast<Network*>(ctx)->nodes_[a]->on_timer(b);
}

void Network::on_drain_event(void* ctx, SimTime /*when*/, std::uint64_t a,
                             std::uint64_t b) {
  auto* net = static_cast<Network*>(ctx);
  const auto chan = static_cast<std::uint32_t>(a);
  const std::uint32_t slot = net->chan_slot_[chan];
  // Payload b is the seq of the head this drain was armed for; a drain
  // superseded by a lower-keyed arrival (its item since delivered by
  // that earlier drain, or re-armed under the same key) does nothing.
  if (slot == kNoSlot) return;
  if (const Channel& c = net->active_[slot]; c.items[c.head].seq != b) return;
  EventLoop& loop = net->loop_;
  const SimTime horizon = loop.bulk_horizon();
  const bool exact = !net->free_running() || net->link_exact_[chan >> 1] != 0;
  // The head's key was the queue minimum, so it always goes; each further
  // item goes while it precedes the horizon and, in exact order, the queue
  // head. A delivery can cascade into appends that grow active_, so the
  // channel is looked up again after each one.
  for (;;) {
    Channel* c = &net->active_[slot];
    const SimTime stamp = c->items[c->head].stamp;
    pkt::Bytes packet = std::move(c->items[c->head].bytes);
    ++c->head;
    loop.set_time(stamp);
    net->deliver_one(chan, stamp, std::move(packet));
    c = &net->active_[slot];
    if (c->head >= c->items.size()) {
      c->items.clear();
      c->head = 0;
      net->active_.release(slot);
      net->chan_slot_[chan] = kNoSlot;
      return;
    }
    const ChanItem& next = c->items[c->head];
    if (next.stamp > horizon ||
        (exact && !loop.before_head(next.stamp, next.seq))) {
      loop.schedule_reserved(next.stamp, next.seq, kEventChannelDrain, chan,
                             next.seq);
      return;
    }
  }
}

void Network::deliver_one(std::uint32_t chan, SimTime when,
                          pkt::Bytes packet) {
  const Link& link = links_[chan >> 1];
  const bool to_b = (chan & 1) == 0;  // direction 0 = a->b
  const Endpoint& dest = to_b ? link.b : link.a;
  const NodeId from = to_b ? link.a.node : link.b.node;

  if (faults_ && faults_->node_silent(dest.node, when)) {
    faults_->note_silent_drop(dest.node, when);
    return;
  }
  ++packets_delivered_;
  if (delivered_cell_ != nullptr) ++*delivered_cell_;
  if (trace_ != nullptr && trace_->at(obs::TraceLevel::kPacket)) {
    obs::TraceEvent e;
    e.ts = when;
    e.name = "packet_hop";
    e.cat = "net";
    e.i0 = {"from", from};
    e.i1 = {"to", dest.node};
    e.i2 = {"bytes", packet.size()};
    trace_->add(e);
  }
  if (tracer_) tracer_(when, from, dest.node, packet);
  nodes_[dest.node]->receive(std::move(packet), dest.iface);
}

}  // namespace xmap::sim
