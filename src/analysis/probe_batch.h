// A small utility node that sends an explicit list of ICMPv6 echo probes
// (each with its own hop limit) and collects the validated responses.
// Used by the adaptive experiments — subnet-boundary inference and the
// confirmation stage of the routing-loop scan — where the next probe
// depends on earlier answers, so the bulk scanner's permutation machinery
// does not apply.
#pragma once

#include <vector>

#include "sim/network.h"
#include "xmap/probe_module.h"

namespace xmap::ana {

class ProbeBatch : public sim::Node {
 public:
  struct Config {
    net::Ipv6Address source;
    std::uint64_t seed = 1;
    double probes_per_sec = 100000;
  };

  explicit ProbeBatch(Config config) : config_(std::move(config)) {}

  void set_iface(int iface) { iface_ = iface; }

  void enqueue(const net::Ipv6Address& target, std::uint8_t hop_limit) {
    jobs_.push_back(Job{target, hop_limit});
  }

  // Schedules all probes; run the network afterwards.
  void start() {
    const double rate =
        config_.probes_per_sec > 0 ? config_.probes_per_sec : 1e9;
    const auto gap =
        static_cast<sim::SimTime>(static_cast<double>(sim::kSecond) / rate);
    const sim::SimTime now = network()->now();
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      schedule_timer(now + gap * i, i);
    }
  }

  // Timer tag = job index.
  void on_timer(std::uint64_t tag) override {
    const Job& job = jobs_[tag];
    scan::IcmpEchoProbe module{job.hop_limit};
    send(iface_, module.make_probe(config_.source, job.target, config_.seed));
  }

  void receive(pkt::Bytes packet, int /*iface*/) override {
    static const scan::IcmpEchoProbe kClassifier{64};
    if (auto response =
            kClassifier.classify(packet, config_.source, config_.seed)) {
      responses_.push_back(*response);
    }
  }

  [[nodiscard]] const std::vector<scan::ProbeResponse>& responses() const {
    return responses_;
  }
  [[nodiscard]] std::size_t job_count() const { return jobs_.size(); }

  void clear() {
    jobs_.clear();
    responses_.clear();
  }

 private:
  struct Job {
    net::Ipv6Address target;
    std::uint8_t hop_limit;
  };

  Config config_;
  int iface_ = 0;
  std::vector<Job> jobs_;
  std::vector<scan::ProbeResponse> responses_;
};

}  // namespace xmap::ana
