#include "fabric/transport.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <vector>

namespace xmap::fabric {
namespace {

struct Entry {
  int worker = -1;
  std::string frame;
  bool closed = false;  // close sentinel, delivered after pending frames
};

// An unbounded FIFO. close() lets pending entries drain, then every pop
// reports kClosed.
class Mailbox {
 public:
  void push(Entry entry) {
    {
      std::lock_guard lock{mu_};
      queue_.push_back(std::move(entry));
    }
    cv_.notify_all();
  }

  void close() {
    {
      std::lock_guard lock{mu_};
      closed_ = true;
    }
    cv_.notify_all();
  }

  struct PopResult {
    RecvStatus status = RecvStatus::kTimeout;
    Entry entry;
  };

  PopResult pop(int timeout_ms) {
    std::unique_lock lock{mu_};
    cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                 [this] { return !queue_.empty() || closed_; });
    if (queue_.empty()) {
      return {closed_ ? RecvStatus::kClosed : RecvStatus::kTimeout, {}};
    }
    PopResult out;
    out.status =
        queue_.front().closed ? RecvStatus::kClosed : RecvStatus::kFrame;
    out.entry = std::move(queue_.front());
    queue_.pop_front();
    return out;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Entry> queue_;
  bool closed_ = false;
};

}  // namespace

struct LoopbackFabric::Impl {
  struct Channel {
    Mailbox to_worker;
    std::atomic<bool> worker_closed{false};
    std::atomic<bool> coord_closed{false};
    std::unique_ptr<Transport> endpoint;
  };

  int workers = 0;
  Mailbox coord_inbox;
  std::vector<std::unique_ptr<Channel>> channels;
};

namespace {

// The worker-thread side of one channel.
class WorkerEndpoint final : public Transport {
 public:
  WorkerEndpoint(LoopbackFabric::Impl* fabric, int worker)
      : fabric_(fabric), worker_(worker) {}

  bool send(std::string frame) override {
    auto& channel = *fabric_->channels[static_cast<std::size_t>(worker_)];
    if (channel.worker_closed.load(std::memory_order_acquire) ||
        channel.coord_closed.load(std::memory_order_acquire)) {
      return false;
    }
    fabric_->coord_inbox.push(Entry{worker_, std::move(frame)});
    return true;
  }

  RecvResult recv(int timeout_ms) override {
    auto& channel = *fabric_->channels[static_cast<std::size_t>(worker_)];
    auto popped = channel.to_worker.pop(timeout_ms);
    RecvResult out;
    out.status = popped.status;
    out.frame = std::move(popped.entry.frame);
    return out;
  }

  void close() override {
    auto& channel = *fabric_->channels[static_cast<std::size_t>(worker_)];
    if (channel.worker_closed.exchange(true, std::memory_order_acq_rel)) {
      return;
    }
    // The coordinator sees the hangup after this worker's already-queued
    // frames (a TCP FIN behind buffered data); the worker's own inbox
    // unblocks immediately.
    fabric_->coord_inbox.push(Entry{worker_, {}, /*closed=*/true});
    channel.to_worker.close();
  }

 private:
  LoopbackFabric::Impl* fabric_;
  int worker_;
};

}  // namespace

LoopbackFabric::LoopbackFabric(int workers)
    : impl_(std::make_unique<Impl>()) {
  impl_->workers = workers;
  impl_->channels.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    auto channel = std::make_unique<Impl::Channel>();
    channel->endpoint = std::make_unique<WorkerEndpoint>(impl_.get(), w);
    impl_->channels.push_back(std::move(channel));
  }
}

LoopbackFabric::~LoopbackFabric() = default;

int LoopbackFabric::workers() const { return impl_->workers; }

Transport* LoopbackFabric::worker_endpoint(int worker) {
  return impl_->channels[static_cast<std::size_t>(worker)]->endpoint.get();
}

LoopbackFabric::CoordRecv LoopbackFabric::recv_any(int timeout_ms) {
  auto popped = impl_->coord_inbox.pop(timeout_ms);
  CoordRecv out;
  out.status = popped.status;
  out.worker = popped.entry.worker;
  out.frame = std::move(popped.entry.frame);
  return out;
}

bool LoopbackFabric::send_to(int worker, std::string frame) {
  auto& channel = *impl_->channels[static_cast<std::size_t>(worker)];
  if (channel.worker_closed.load(std::memory_order_acquire) ||
      channel.coord_closed.load(std::memory_order_acquire)) {
    return false;
  }
  channel.to_worker.push(Entry{worker, std::move(frame)});
  return true;
}

void LoopbackFabric::close_all() {
  for (auto& channel : impl_->channels) {
    if (!channel->coord_closed.exchange(true, std::memory_order_acq_rel)) {
      channel->to_worker.close();
    }
  }
}

}  // namespace xmap::fabric
