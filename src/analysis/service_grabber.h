// Application-layer banner grabber (the ZGrab2 stage of the pipeline).
//
// For every (periphery address, service) pair the grabber performs the
// paper's Table VI exchange: a UDP request (DNS version query, NTP client
// packet) or a minimal TCP session (SYN -> SYN/ACK -> ACK [greeting] ->
// request -> response), then parses the collected bytes into the software
// identity and vendor hints used by Tables VII/VIII and Figures 2/3.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "services/service.h"
#include "sim/network.h"

namespace xmap::ana {

struct GrabResult {
  net::Ipv6Address target;
  svc::ServiceKind kind = svc::ServiceKind::kDns;
  bool port_open = false;  // transport-level liveness (SYN/ACK or datagram)
  bool alive = false;      // valid application-level response
  std::string banner;      // raw text collected from the wire
  std::optional<svc::SoftwareInfo> software;
  std::string vendor_hint;       // device vendor recovered from banners
  bool management_page = false;  // HTTP login page detected
};

// Parses collected application bytes for one service into software/vendor.
// Exposed separately so it is unit-testable without the network.
void parse_banner(GrabResult& result);

class ServiceGrabber : public sim::Node {
 public:
  struct Config {
    net::Ipv6Address source;
    std::uint64_t seed = 1;
    double grabs_per_sec = 1000;  // the paper probes at 1000 pps
    sim::SimTime job_timeout = 300 * sim::kMillisecond;
  };

  explicit ServiceGrabber(Config config) : config_(std::move(config)) {}

  void set_iface(int iface) { iface_ = iface; }
  void enqueue(const net::Ipv6Address& target, svc::ServiceKind kind) {
    Job job;
    job.target = target;
    job.kind = kind;
    queue_.push_back(std::move(job));
  }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  // Schedules all queued grabs; results are final after Network::run().
  void start();

  [[nodiscard]] const std::vector<GrabResult>& results() const {
    return results_;
  }

  void receive(pkt::Bytes packet, int iface) override;
  void on_timer(std::uint64_t tag) override;

 private:
  // Timer tags: the job index, plus an action bit for a job timeout or a
  // delayed application request (none: launch).
  static constexpr std::uint64_t kTimerFinish = std::uint64_t{1} << 62;
  static constexpr std::uint64_t kTimerRequest = std::uint64_t{1} << 63;

  struct Job {
    net::Ipv6Address target;
    svc::ServiceKind kind;
    GrabResult result;
    bool launched = false;
    bool finished = false;
    bool handshake_done = false;
    std::uint32_t client_seq = 0;   // our next sequence number
    std::uint32_t server_next = 0;  // next expected server byte
  };

  void launch(std::size_t index);
  void finish(std::size_t index);
  [[nodiscard]] std::uint16_t job_sport(const Job& job) const;
  void send_request_data(Job& job);

  Config config_;
  int iface_ = 0;
  std::vector<Job> queue_;
  // (target addr hash ^ port) -> job index for response dispatch.
  std::unordered_map<std::uint64_t, std::size_t> dispatch_;
  std::vector<GrabResult> results_;
};

}  // namespace xmap::ana
