#include "analysis/service_grabber.h"

#include "netbase/random.h"
#include "services/dns_codec.h"

namespace xmap::ana {
namespace {

std::uint64_t dispatch_key(const net::Ipv6Address& target,
                           std::uint16_t port) {
  const net::Uint128 v = target.value();
  return net::hash_combine64(net::hash_combine64(v.hi(), v.lo()), port);
}

std::string to_text(std::span<const std::uint8_t> data) {
  std::string out;
  out.reserve(data.size());
  for (std::uint8_t b : data) {
    out.push_back(static_cast<char>(b));
  }
  return out;
}

// Splits "name-1.2.3" at the last '-' into software identity.
svc::SoftwareInfo split_software(const std::string& full) {
  const std::size_t dash = full.rfind('-');
  if (dash == std::string::npos || dash + 1 >= full.size()) {
    return svc::SoftwareInfo{full, ""};
  }
  return svc::SoftwareInfo{full.substr(0, dash), full.substr(dash + 1)};
}

std::string strip_telnet_iac(const std::string& raw) {
  std::string out;
  for (std::size_t i = 0; i < raw.size();) {
    const auto b = static_cast<std::uint8_t>(raw[i]);
    if (b == 0xff && i + 2 < raw.size()) {
      i += 3;  // IAC <verb> <option>
      continue;
    }
    out.push_back(raw[i]);
    ++i;
  }
  return out;
}

std::string find_between(const std::string& hay, const std::string& pre,
                         const std::string& post) {
  const std::size_t a = hay.find(pre);
  if (a == std::string::npos) return {};
  const std::size_t start = a + pre.size();
  const std::size_t b = hay.find(post, start);
  if (b == std::string::npos) return {};
  return hay.substr(start, b - start);
}

}  // namespace

void parse_banner(GrabResult& result) {
  const std::string& banner = result.banner;
  switch (result.kind) {
    case svc::ServiceKind::kDns: {
      // The banner holds the version.bind TXT text, e.g. "dnsmasq-2.45".
      if (!banner.empty()) {
        result.alive = true;
        result.software = split_software(banner);
      }
      break;
    }
    case svc::ServiceKind::kNtp: {
      if (!banner.empty()) {
        result.alive = true;
        result.software = svc::SoftwareInfo{"ntpd", banner};  // version bits
      }
      break;
    }
    case svc::ServiceKind::kSsh: {
      if (banner.rfind("SSH-2.0-", 0) == 0) {
        result.alive = true;
        std::string ident = banner.substr(8);
        while (!ident.empty() && (ident.back() == '\r' || ident.back() == '\n'))
          ident.pop_back();
        const std::size_t underscore = ident.find('_');
        if (underscore != std::string::npos) {
          result.software = svc::SoftwareInfo{
              ident.substr(0, underscore), ident.substr(underscore + 1)};
        } else {
          result.software = svc::SoftwareInfo{ident, ""};
        }
      }
      break;
    }
    case svc::ServiceKind::kFtp: {
      if (banner.rfind("220 ", 0) == 0) {
        result.alive = true;
        result.vendor_hint = find_between(banner, "220 ", " FTP server");
        const std::string sw = find_between(banner, "(", ")");
        if (!sw.empty()) result.software = split_software(sw);
      }
      break;
    }
    case svc::ServiceKind::kTelnet: {
      const std::string text = strip_telnet_iac(banner);
      const std::size_t login = text.find(" login: ");
      if (login != std::string::npos) {
        result.alive = true;
        result.vendor_hint = text.substr(0, login);
      }
      break;
    }
    case svc::ServiceKind::kHttp:
    case svc::ServiceKind::kHttp8080: {
      if (banner.rfind("HTTP/1.1", 0) == 0) {
        result.alive = true;
        const std::string server = find_between(banner, "Server: ", "\r\n");
        if (!server.empty()) result.software = split_software(server);
        const std::string title = find_between(banner, "<title>", "</title>");
        if (title.find("Router Login") != std::string::npos) {
          result.management_page = true;
          result.vendor_hint = find_between(banner, "<title>", " Router Login");
        }
      }
      break;
    }
    case svc::ServiceKind::kTls: {
      if (!banner.empty() && banner.find("CERT CN=") != std::string::npos) {
        result.alive = true;
        result.vendor_hint = find_between(banner, "CERT CN=", " ISSUER=");
        const std::string issuer = find_between(banner, "ISSUER=", " CIPHER=");
        if (!issuer.empty()) result.software = split_software(issuer);
      }
      break;
    }
  }
}

std::uint16_t ServiceGrabber::job_sport(const Job& job) const {
  const net::Uint128 v = job.target.value();
  std::uint64_t h = net::hash_combine64(config_.seed, v.lo() ^ v.hi());
  h = net::hash_combine64(h, svc::port_of(job.kind));
  return static_cast<std::uint16_t>(0x8000 | (h & 0x7fff));
}

void ServiceGrabber::start() {
  const double rate = config_.grabs_per_sec > 0 ? config_.grabs_per_sec : 1e9;
  const auto gap =
      static_cast<sim::SimTime>(static_cast<double>(sim::kSecond) / rate);
  const sim::SimTime now = network()->now();
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    dispatch_[dispatch_key(queue_[i].target, svc::port_of(queue_[i].kind))] = i;
    schedule_timer(now + gap * i, i);
  }
}

void ServiceGrabber::on_timer(std::uint64_t tag) {
  const std::size_t index = tag & (kTimerFinish - 1);
  if ((tag & kTimerFinish) != 0) {
    finish(index);
  } else if ((tag & kTimerRequest) == 0) {
    launch(index);
  } else if (!queue_[index].finished) {
    send_request_data(queue_[index]);
  }
}

void ServiceGrabber::launch(std::size_t index) {
  Job& job = queue_[index];
  job.launched = true;
  job.result.target = job.target;
  job.result.kind = job.kind;
  const std::uint16_t sport = job_sport(job);
  const std::uint16_t dport = svc::port_of(job.kind);

  if (!svc::is_tcp(job.kind)) {
    pkt::Bytes payload;
    if (job.kind == svc::ServiceKind::kDns) {
      const auto wire = svc::make_version_query(
                            static_cast<std::uint16_t>(sport ^ 0x5aa5))
                            .encode();
      payload.assign(wire.begin(), wire.end());
    } else {  // NTP client (mode 3, version 4)
      payload.assign(48, 0);
      payload[0] = (4 << 3) | 3;
      payload[40] = 0xc3;
    }
    send(iface_, pkt::build_udp(config_.source, job.target, sport, dport,
                                payload));
  } else {
    job.client_seq = static_cast<std::uint32_t>(
        net::hash_combine64(config_.seed, dispatch_key(job.target, dport)));
    send(iface_, pkt::build_tcp(config_.source, job.target, sport, dport,
                                job.client_seq, 0, pkt::kTcpSyn, 65535));
  }

  schedule_timer(network()->now() + config_.job_timeout,
                 kTimerFinish | index);
}

void ServiceGrabber::send_request_data(Job& job) {
  const std::uint16_t sport = job_sport(job);
  const std::uint16_t dport = svc::port_of(job.kind);
  pkt::Bytes request;
  switch (job.kind) {
    case svc::ServiceKind::kHttp:
    case svc::ServiceKind::kHttp8080: {
      const std::string get = "GET / HTTP/1.1\r\nHost: [" +
                              job.target.to_string() + "]\r\n\r\n";
      request.assign(get.begin(), get.end());
      break;
    }
    case svc::ServiceKind::kTls:
      request = {0x16, 0x03, 0x01, 0x00, 0x2f, 0x01, 0x00, 0x00, 0x2b};
      break;
    default:
      return;  // banner services: the greeting is all we need
  }
  send(iface_, pkt::build_tcp(config_.source, job.target, sport, dport,
                              job.client_seq + 1, job.server_next,
                              pkt::kTcpPsh | pkt::kTcpAck, 65535, request));
}

void ServiceGrabber::receive(pkt::Bytes packet, int /*iface*/) {
  pkt::Ipv6View ip{packet};
  if (!ip.valid() || ip.dst() != config_.source) return;

  if (ip.next_header() == pkt::kProtoUdp) {
    pkt::UdpView udp{ip.payload()};
    if (!udp.valid()) return;
    auto it = dispatch_.find(dispatch_key(ip.src(), udp.src_port()));
    if (it == dispatch_.end()) return;
    Job& job = queue_[it->second];
    if (job.finished || udp.dst_port() != job_sport(job)) return;
    job.result.port_open = true;
    if (job.kind == svc::ServiceKind::kDns) {
      if (auto msg = svc::DnsMessage::decode(udp.payload());
          msg && msg->is_response && !msg->answers.empty() &&
          !msg->answers[0].rdata.empty()) {
        const auto& rdata = msg->answers[0].rdata;
        job.result.banner.assign(rdata.begin() + 1, rdata.end());
      }
    } else if (job.kind == svc::ServiceKind::kNtp) {
      const auto data = udp.payload();
      if (data.size() >= 48 && (data[0] & 0x7) == 4) {
        job.result.banner = std::to_string((data[0] >> 3) & 0x7);
      }
    }
    return;
  }

  if (ip.next_header() == pkt::kProtoTcp) {
    pkt::TcpView tcp{ip.payload()};
    if (!tcp.valid()) return;
    auto it = dispatch_.find(dispatch_key(ip.src(), tcp.src_port()));
    if (it == dispatch_.end()) return;
    Job& job = queue_[it->second];
    if (job.finished || tcp.dst_port() != job_sport(job)) return;

    if (tcp.flags() & pkt::kTcpRst) return;  // closed: port_open stays false

    if ((tcp.flags() & (pkt::kTcpSyn | pkt::kTcpAck)) ==
        (pkt::kTcpSyn | pkt::kTcpAck)) {
      job.result.port_open = true;
      job.handshake_done = true;
      job.server_next = tcp.seq() + 1;
      // Complete the handshake; banner services will greet in response.
      send(iface_,
           pkt::build_tcp(config_.source, job.target, job_sport(job),
                          svc::port_of(job.kind), job.client_seq + 1,
                          job.server_next, pkt::kTcpAck, 65535));
      // And push the application request where one is needed.
      schedule_timer(network()->now() + sim::kMillisecond,
                     kTimerRequest | it->second);
      return;
    }

    const auto data = tcp.payload();
    if (!data.empty()) {
      job.result.banner += to_text(data);
      job.server_next = tcp.seq() + static_cast<std::uint32_t>(data.size());
    }
  }
}

void ServiceGrabber::finish(std::size_t index) {
  Job& job = queue_[index];
  if (job.finished) return;
  job.finished = true;
  parse_banner(job.result);
  if (!svc::is_tcp(job.kind) && !job.result.banner.empty()) {
    job.result.port_open = true;
  }
  results_.push_back(job.result);
}

}  // namespace xmap::ana
