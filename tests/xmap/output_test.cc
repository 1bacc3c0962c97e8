// Golden lines for the CSV and JSON Lines result writers: a fixed record
// set covering every response kind, both ends of the byte fields, a
// v4-mapped and a fully compressed address, and a 20-digit timestamp.
#include "xmap/output.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace xmap::scan {
namespace {

struct Fixed {
  ProbeResponse response;
  sim::SimTime when;
};

std::vector<Fixed> fixed_records() {
  const auto addr = [](const char* text) {
    return *net::Ipv6Address::parse(text);
  };
  return {
      {{ResponseKind::kDestUnreachable, addr("2001:db8:1::1"),
        addr("2001:db8:1:2:1234:5678:9abc:def0"), 3, 61},
       1'234'567'890},
      {{ResponseKind::kEchoReply, addr("2001:db8:1:2::1"),
        addr("2001:db8:1:2::1"), 0, 255},
       999},
      {{ResponseKind::kTimeExceeded, addr("::"), addr("::ffff:10.0.0.1"),
        255, 0},
       0},
      {{ResponseKind::kTcpSynAck,
        addr("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"), addr("1:0:0:2::"),
        0, 64},
       ~std::uint64_t{0}},
      {{ResponseKind::kTcpRst, addr("2001:0:0:1::1"), addr("::1"), 1, 1},
       1000},
      {{ResponseKind::kUdpData, addr("fe80::1"), addr("2001:db8:0:1:1:1:1:1"),
        0, 128},
       5'000'000},
      {{ResponseKind::kOther, addr("2001:db8::"), addr("::1:2:3:4:5"), 4, 7},
       1'001},
  };
}

std::string write_all(const std::string& format) {
  std::ostringstream out;
  auto writer = make_writer(format, out);
  EXPECT_NE(writer, nullptr);
  writer->begin();
  for (const Fixed& r : fixed_records()) writer->record(r.response, r.when);
  writer->end();
  return out.str();
}

TEST(ResultWriters, CsvGoldenLines) {
  EXPECT_EQ(
      write_all("csv"),
      "saddr,probe_dst,classification,icmp_code,hlim,timestamp_us\n"
      "2001:db8:1::1,2001:db8:1:2:1234:5678:9abc:def0,dest-unreach,3,61,"
      "1234567\n"
      "2001:db8:1:2::1,2001:db8:1:2::1,echo-reply,0,255,0\n"
      "::,::ffff:10.0.0.1,time-exceeded,255,0,0\n"
      "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff,1:0:0:2::,syn-ack,0,64,"
      "18446744073709551\n"
      "2001:0:0:1::1,::1,rst,1,1,1\n"
      "fe80::1,2001:db8:0:1:1:1:1:1,udp-data,0,128,5000\n"
      "2001:db8::,::1:2:3:4:5,other,4,7,1\n");
}

TEST(ResultWriters, JsonlGoldenLines) {
  EXPECT_EQ(
      write_all("jsonl"),
      "{\"saddr\":\"2001:db8:1::1\",\"probe_dst\":\"2001:db8:1:2:1234:5678:"
      "9abc:def0\",\"classification\":\"dest-unreach\",\"icmp_code\":3,"
      "\"hlim\":61,\"timestamp_us\":1234567}\n"
      "{\"saddr\":\"2001:db8:1:2::1\",\"probe_dst\":\"2001:db8:1:2::1\","
      "\"classification\":\"echo-reply\",\"icmp_code\":0,\"hlim\":255,"
      "\"timestamp_us\":0}\n"
      "{\"saddr\":\"::\",\"probe_dst\":\"::ffff:10.0.0.1\","
      "\"classification\":\"time-exceeded\",\"icmp_code\":255,\"hlim\":0,"
      "\"timestamp_us\":0}\n"
      "{\"saddr\":\"ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff\",\"probe_dst\":"
      "\"1:0:0:2::\",\"classification\":\"syn-ack\",\"icmp_code\":0,"
      "\"hlim\":64,\"timestamp_us\":18446744073709551}\n"
      "{\"saddr\":\"2001:0:0:1::1\",\"probe_dst\":\"::1\",\"classification\":"
      "\"rst\",\"icmp_code\":1,\"hlim\":1,\"timestamp_us\":1}\n"
      "{\"saddr\":\"fe80::1\",\"probe_dst\":\"2001:db8:0:1:1:1:1:1\","
      "\"classification\":\"udp-data\",\"icmp_code\":0,\"hlim\":128,"
      "\"timestamp_us\":5000}\n"
      "{\"saddr\":\"2001:db8::\",\"probe_dst\":\"::1:2:3:4:5\","
      "\"classification\":\"other\",\"icmp_code\":4,\"hlim\":7,"
      "\"timestamp_us\":1}\n");
  EXPECT_EQ(write_all("json"), write_all("jsonl"));
}

TEST(ResultWriters, UnknownFormatHasNoWriter) {
  std::ostringstream out;
  EXPECT_EQ(make_writer("xml", out), nullptr);
}

}  // namespace
}  // namespace xmap::scan
