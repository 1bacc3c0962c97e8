// Micro-benchmarks (google-benchmark): the scanner's hot paths — cyclic
// group permutation, target/probe construction, packet codec, checksum and
// longest-prefix-match lookups — plus the linear-vs-permuted ablation
// DESIGN.md calls out.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench/common.h"
#include "netbase/checksum.h"
#include "netbase/random.h"
#include "tests/support/checksum_reference.h"
#include "topology/routing_table.h"
#include "xmap/cyclic_group.h"
#include "xmap/probe_module.h"
#include "xmap/target_spec.h"

namespace {

using namespace xmap;

void BM_CyclicGroupNext(benchmark::State& state) {
  scan::CyclicGroup group{net::Uint128::pow2(static_cast<int>(state.range(0))),
                          42};
  auto it = group.iterate();
  for (auto _ : state) {
    auto v = it.next();
    if (!v) it = group.iterate();
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CyclicGroupNext)->Arg(16)->Arg(32)->Arg(48)->Arg(64);

void BM_GroupConstruction(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    scan::CyclicGroup group{
        net::Uint128::pow2(static_cast<int>(state.range(0))), seed++};
    benchmark::DoNotOptimize(group.generator());
  }
}
BENCHMARK(BM_GroupConstruction)->Arg(16)->Arg(32)->Arg(64);

// Ablation: linear enumeration vs cyclic-group permutation. The permutation
// costs one 128-bit mulmod per target; this quantifies the overhead paid
// for probe-order randomisation (politeness to target networks).
void BM_LinearEnumeration(benchmark::State& state) {
  const auto spec = *scan::TargetSpec::parse("2400::/8-40");
  net::Uint128 i{0};
  for (auto _ : state) {
    auto addr = spec.nth_address(i, 7);
    i += net::Uint128{1};
    benchmark::DoNotOptimize(addr);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LinearEnumeration);

void BM_PermutedEnumeration(benchmark::State& state) {
  const auto spec = *scan::TargetSpec::parse("2400::/8-40");
  scan::CyclicGroup group{spec.count(), 42};
  auto it = group.iterate();
  for (auto _ : state) {
    auto v = it.next();
    if (!v) {
      it = group.iterate();
      v = it.next();
    }
    auto addr = spec.nth_address(*v, 7);
    benchmark::DoNotOptimize(addr);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PermutedEnumeration);

void BM_BuildEchoProbe(benchmark::State& state) {
  const auto src = *net::Ipv6Address::parse("2001:500::1");
  const auto dst = *net::Ipv6Address::parse("2400:1:2:3::1234");
  scan::IcmpEchoProbe module{64};
  for (auto _ : state) {
    auto packet = module.make_probe(src, dst, 7);
    benchmark::DoNotOptimize(packet);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BuildEchoProbe);

// The template hot path: re-aim a cached frame per target (destination +
// keyed fields + incremental checksum) instead of a full rebuild. The ratio
// against BM_BuildEchoProbe is the per-probe win the scanner banks on.
void BM_PatchEchoProbe(benchmark::State& state) {
  const auto src = *net::Ipv6Address::parse("2001:500::1");
  const auto spec = *scan::TargetSpec::parse("2400::/8-40");
  scan::IcmpEchoProbe module{64};
  scan::ProbeTemplate tmpl = module.make_template(src, 7);
  net::Uint128 i{0};
  for (auto _ : state) {
    const auto target = spec.nth_address(i, 7);
    i += net::Uint128{1};
    module.patch_probe(tmpl, src, target, 7);
    benchmark::DoNotOptimize(tmpl.frame().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PatchEchoProbe);

void BM_ChecksumUpdate(benchmark::State& state) {
  std::vector<std::uint8_t> buf(64, 0xa5);
  std::uint16_t csum = net::internet_checksum(buf);
  std::uint8_t patch[16] = {};
  std::uint64_t n = 0;
  for (auto _ : state) {
    patch[0] = static_cast<std::uint8_t>(++n);
    csum = net::checksum_update(
        csum, std::span<const std::uint8_t>{buf.data() + 16, 16}, patch);
    std::memcpy(buf.data() + 16, patch, 16);
    benchmark::DoNotOptimize(csum);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChecksumUpdate);

void BM_ClassifyResponse(benchmark::State& state) {
  const auto src = *net::Ipv6Address::parse("2001:500::1");
  const auto dst = *net::Ipv6Address::parse("2400:1:2:3::1234");
  const auto router = *net::Ipv6Address::parse("2400:1:2:3::1");
  scan::IcmpEchoProbe module{64};
  const auto err = pkt::build_icmpv6_error(
      router, pkt::Icmpv6Type::kDestUnreachable, 3,
      module.make_probe(src, dst, 7));
  for (auto _ : state) {
    auto result = module.classify(err, src, 7);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClassifyResponse);

void BM_Checksum1280(benchmark::State& state) {
  std::vector<std::uint8_t> data(1280, 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::internet_checksum(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1280);
}
BENCHMARK(BM_Checksum1280);

void BM_LpmLookup(benchmark::State& state) {
  topo::RoutingTable table;
  net::Rng rng{5};
  for (int i = 0; i < state.range(0); ++i) {
    const auto addr =
        net::Ipv6Address::from_value(net::Uint128{rng.next(), rng.next()});
    table.add_forward(net::Ipv6Prefix{addr, 64}, i % 8);
  }
  table.add_default(0);
  const auto probe =
      net::Ipv6Address::from_value(net::Uint128{rng.next(), rng.next()});
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(probe));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LpmLookup)->Arg(100)->Arg(10000)->Arg(100000);

void BM_AddressParse(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net::Ipv6Address::parse("2001:db8:1234:5678:9abc:def0:1357:2468"));
  }
}
BENCHMARK(BM_AddressParse);

void BM_AddressFormat(benchmark::State& state) {
  const auto addr = *net::Ipv6Address::parse("2001:db8::1234:0:0:1");
  for (auto _ : state) {
    benchmark::DoNotOptimize(addr.to_string());
  }
}
BENCHMARK(BM_AddressFormat);

// Hand-timed versions of the headline kernels for BENCH_micro_xmap.json:
// independent of the benchmark library's reporter API, so the regression
// checker sees a stable schema.
void write_bench_json() {
  using Clock = std::chrono::steady_clock;
  const auto src = *net::Ipv6Address::parse("2001:500::1");
  const auto spec = *scan::TargetSpec::parse("2400::/8-40");
  scan::IcmpEchoProbe module{64};
  constexpr int kIters = 400000;

  auto throughput = [&](auto&& body) {
    // One warm-up pass (pool + caches), then the timed pass.
    for (int rep = 0; rep < 2; ++rep) {
      const auto t0 = Clock::now();
      std::uint64_t sink = 0;
      net::Uint128 i{0};
      for (int k = 0; k < kIters; ++k) {
        sink += body(spec.nth_address(i, 7));
        i += net::Uint128{1};
      }
      benchmark::DoNotOptimize(sink);
      if (rep == 1) {
        return kIters / std::chrono::duration<double>(Clock::now() - t0)
                            .count();
      }
    }
    return 0.0;
  };

  xmap::bench::BenchJson json{"micro_xmap"};
  json.add("build_echo_probe_per_sec", throughput([&](const auto& target) {
             return module.make_probe(src, target, 7).size();
           }),
           "probes/s");
  scan::ProbeTemplate tmpl = module.make_template(src, 7);
  json.add("patch_echo_probe_per_sec", throughput([&](const auto& target) {
             module.patch_probe(tmpl, src, target, 7);
             return tmpl.frame().size();
           }),
           "probes/s");
  std::vector<std::uint8_t> buf(1280, 0xa5);
  json.add("checksum_1280_per_sec", throughput([&](const auto&) {
             return static_cast<std::size_t>(net::internet_checksum(buf));
           }),
           "checksums/s");
  // Equality sweep pinning the dispatched (SIMD) checksum path to the
  // byte-pair reference over random contents, odd lengths and unaligned
  // starts — checksum_1280_per_sec above times that same dispatched path.
  // An abort here beats a silently wrong wire checksum in every probe.
  {
    net::Rng rng{0x51u};
    std::vector<std::uint8_t> rbuf(1400);
    for (auto& b : rbuf) b = static_cast<std::uint8_t>(rng.next());
    for (const std::size_t off : {std::size_t{0}, std::size_t{1},
                                  std::size_t{3}, std::size_t{17}}) {
      for (const std::size_t len :
           {std::size_t{64}, std::size_t{127}, std::size_t{128},
            std::size_t{256}, std::size_t{1279}, std::size_t{1280}}) {
        const std::span<const std::uint8_t> s{rbuf.data() + off, len};
        const std::uint16_t fast =
            net::checksum_finish(net::checksum_accumulate(s));
        const std::uint16_t ref = net::checksum_finish(
            test_support::checksum_accumulate_reference(s));
        if (fast != ref) {
          std::fprintf(stderr,
                       "checksum SIMD/reference mismatch off=%zu len=%zu\n",
                       off, len);
          std::abort();
        }
      }
    }
  }
  json.write();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_bench_json();
  return 0;
}
