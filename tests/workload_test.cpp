// Workload generator tests: CDF sampling statistics, incast/permutation
// structure, Poisson load accuracy, trace replay.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "workload/cdf.hpp"
#include "workload/traffic.hpp"

namespace uno {
namespace {

TEST(Cdf, QuantileInterpolatesLinearly) {
  EmpiricalCdf cdf({{100, 0.0}, {200, 0.5}, {400, 1.0}});
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 100);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.25), 150);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 200);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.75), 300);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 400);
}

TEST(Cdf, MeanMatchesTrapezoid) {
  EmpiricalCdf cdf({{100, 0.0}, {200, 0.5}, {400, 1.0}});
  // 0.5*(150) + 0.5*(300) = 225.
  EXPECT_DOUBLE_EQ(cdf.mean(), 225);
}

TEST(Cdf, SampleMeanConvergesToAnalyticMean) {
  const EmpiricalCdf& cdf = EmpiricalCdf::websearch();
  Rng rng(123);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += cdf.sample(rng);
  EXPECT_NEAR(sum / n / cdf.mean(), 1.0, 0.03);
}

TEST(Cdf, ScaledShrinksValuesNotShape) {
  const EmpiricalCdf& base = EmpiricalCdf::alibaba_wan();
  EmpiricalCdf scaled = base.scaled(1.0 / 16.0);
  EXPECT_NEAR(scaled.mean() * 16.0, base.mean(), base.mean() * 0.01);
  EXPECT_DOUBLE_EQ(scaled.quantile(1.0) * 16.0, base.quantile(1.0));
}

TEST(Cdf, BuiltinsAreSane) {
  EXPECT_GT(EmpiricalCdf::websearch().mean(), 1e6);        // MB-scale mean
  EXPECT_GT(EmpiricalCdf::alibaba_wan().mean(), 2e7);      // tens of MB
  EXPECT_LT(EmpiricalCdf::google_rpc().mean(), 20'000.0);  // small RPCs
  EXPECT_EQ(EmpiricalCdf::alibaba_wan().max_value(), 300e6);
}

TEST(Cdf, RejectsMalformedInput) {
  EXPECT_THROW(EmpiricalCdf({{100, 0.0}, {200, 0.5}}), std::invalid_argument);  // no p=1
  EXPECT_THROW(EmpiricalCdf({{100, 0.5}, {50, 1.0}}), std::invalid_argument);   // decreasing
  EXPECT_THROW(EmpiricalCdf(std::vector<EmpiricalCdf::Point>{}), std::invalid_argument);
}

TEST(Incast, MixedSendersFromBothDcs) {
  HostSpace hosts{16, 2};
  auto specs = make_incast(hosts, /*receiver=*/3, 4, 4, 1 << 20);
  ASSERT_EQ(specs.size(), 8u);
  int intra = 0, inter = 0;
  std::set<int> senders;
  for (const FlowSpec& s : specs) {
    EXPECT_EQ(s.dst, 3);
    EXPECT_NE(s.src, 3);
    EXPECT_EQ(s.size_bytes, 1u << 20);
    senders.insert(s.src);
    (s.interdc ? inter : intra)++;
    EXPECT_EQ(s.interdc, hosts.dc_of(s.src) != hosts.dc_of(3));
  }
  EXPECT_EQ(intra, 4);
  EXPECT_EQ(inter, 4);
  EXPECT_EQ(senders.size(), 8u);  // distinct senders
}

TEST(Incast, InterSendersRoundRobinOverAllOtherDcs) {
  // Regression for the old 2-DC assumption: at 4 DCs the inter senders must
  // spread over every *other* DC, not all pile into DC (rdc + 1).
  HostSpace hosts{16, 4};
  auto specs = make_incast(hosts, /*receiver=*/3, 2, 6, 1 << 20);
  ASSERT_EQ(specs.size(), 8u);
  std::set<int> senders;
  std::map<int, int> per_dc;  // inter senders per source DC
  for (const FlowSpec& s : specs) {
    EXPECT_EQ(s.dst, 3);
    EXPECT_NE(s.src, 3);
    senders.insert(s.src);
    if (s.interdc) per_dc[hosts.dc_of(s.src)]++;
  }
  EXPECT_EQ(senders.size(), 8u);
  ASSERT_EQ(per_dc.size(), 3u);  // DCs 1, 2, 3 all represented
  for (int d : {1, 2, 3}) EXPECT_EQ(per_dc[d], 2) << "dc " << d;
}

TEST(Permutation, EveryHostSendsOnceNoSelfLoops) {
  HostSpace hosts{16, 2};
  auto specs = make_permutation(hosts, 1 << 20, /*seed=*/7);
  ASSERT_EQ(specs.size(), 32u);
  std::set<int> dsts;
  for (const FlowSpec& s : specs) {
    EXPECT_NE(s.src, s.dst);
    dsts.insert(s.dst);
    EXPECT_EQ(s.interdc, hosts.dc_of(s.src) != hosts.dc_of(s.dst));
  }
  EXPECT_EQ(dsts.size(), 32u);  // a permutation: every host receives once
}

TEST(Permutation, DeterministicPerSeed) {
  HostSpace hosts{16, 2};
  auto a = make_permutation(hosts, 1000, 7);
  auto b = make_permutation(hosts, 1000, 7);
  auto c = make_permutation(hosts, 1000, 8);
  ASSERT_EQ(a.size(), b.size());
  bool same = true, diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    same &= a[i].dst == b[i].dst;
    diff |= a[i].dst != c[i].dst;
  }
  EXPECT_TRUE(same);
  EXPECT_TRUE(diff);
}

TEST(Poisson, OfferedLoadMatchesTarget) {
  HostSpace hosts{128, 2};
  PoissonConfig cfg;
  cfg.load = 0.4;
  cfg.duration = 20 * kMillisecond;
  cfg.seed = 5;
  auto specs = make_poisson_mixed(hosts, EmpiricalCdf::websearch(),
                                  EmpiricalCdf::alibaba_wan(), cfg);
  double bytes = 0;
  for (const FlowSpec& s : specs) bytes += static_cast<double>(s.size_bytes);
  const double offered_Bps = bytes / to_seconds(cfg.duration);
  const double target_Bps = 0.4 * 256 * 100e9 / 8;
  EXPECT_NEAR(offered_Bps / target_Bps, 1.0, 0.25);
}

TEST(Poisson, TrafficSplitIsFourToOne) {
  HostSpace hosts{128, 2};
  PoissonConfig cfg;
  cfg.load = 0.5;
  cfg.duration = 50 * kMillisecond;
  auto specs = make_poisson_mixed(hosts, EmpiricalCdf::websearch(),
                                  EmpiricalCdf::alibaba_wan(), cfg);
  double intra = 0, inter = 0;
  for (const FlowSpec& s : specs) (s.interdc ? inter : intra) += static_cast<double>(s.size_bytes);
  EXPECT_NEAR(intra / (intra + inter), 0.8, 0.08);
}

TEST(Poisson, ArrivalsSortedAndInWindow) {
  HostSpace hosts{16, 2};
  PoissonConfig cfg;
  cfg.load = 0.2;
  cfg.duration = 5 * kMillisecond;
  auto specs = make_poisson_mixed(hosts, EmpiricalCdf::google_rpc(),
                                  EmpiricalCdf::google_rpc(), cfg);
  ASSERT_FALSE(specs.empty());
  for (std::size_t i = 1; i < specs.size(); ++i)
    EXPECT_GE(specs[i].start_time, specs[i - 1].start_time);
  EXPECT_LT(specs.back().start_time, cfg.duration);
}

TEST(Poisson, CrossDcDestinationsSpreadAtFourDcs) {
  // Regression for the old "the other DC" assumption: cross-DC arrivals must
  // pick uniformly among all *other* DCs, never the source's own.
  HostSpace hosts{32, 4};
  PoissonConfig cfg;
  cfg.load = 0.3;
  cfg.duration = 20 * kMillisecond;
  auto specs = make_poisson_mixed(hosts, EmpiricalCdf::google_rpc(),
                                  EmpiricalCdf::google_rpc(), cfg);
  std::set<std::pair<int, int>> dc_pairs;
  for (const FlowSpec& s : specs) {
    EXPECT_EQ(s.interdc, hosts.dc_of(s.src) != hosts.dc_of(s.dst));
    if (s.interdc) dc_pairs.emplace(hosts.dc_of(s.src), hosts.dc_of(s.dst));
  }
  // All 12 ordered cross-DC pairs show up in a 20 ms window.
  EXPECT_EQ(dc_pairs.size(), 12u);
}

TEST(Poisson, ActiveHostSubsetRespected) {
  HostSpace hosts{128, 2};
  PoissonConfig cfg;
  cfg.load = 0.3;
  cfg.active_hosts = 32;  // 16 per DC
  cfg.duration = 5 * kMillisecond;
  auto specs = make_poisson_mixed(hosts, EmpiricalCdf::google_rpc(),
                                  EmpiricalCdf::google_rpc(), cfg);
  for (const FlowSpec& s : specs) {
    EXPECT_LT(s.src % 128, 16);
    EXPECT_LT(s.dst % 128, 16);
  }
}

TEST(RpcBackground, StaysInsideOneDc) {
  HostSpace hosts{16, 2};
  auto specs = make_rpc_background(hosts, /*dc=*/1, EmpiricalCdf::google_rpc(), 0.1,
                                   100 * kGbps, 8, 2 * kMillisecond, 3);
  ASSERT_FALSE(specs.empty());
  for (const FlowSpec& s : specs) {
    EXPECT_EQ(hosts.dc_of(s.src), 1);
    EXPECT_EQ(hosts.dc_of(s.dst), 1);
    EXPECT_FALSE(s.interdc);
  }
}

TEST(Replay, LoadsCsvTrace) {
  const char* path = "/tmp/uno_trace_test.csv";
  {
    std::ofstream out(path);
    out << "# src,dst,bytes,start_us\n"
        << "0,17,1048576,0\n"
        << "3,5,4096,250.5\n"
        << "1,2,100,10\n";
  }
  HostSpace hosts{16, 2};
  auto specs = load_flow_specs_csv(path, hosts);
  ASSERT_EQ(specs.size(), 3u);
  // Sorted by start time.
  EXPECT_EQ(specs[0].src, 0);
  EXPECT_TRUE(specs[0].interdc);
  EXPECT_EQ(specs[1].size_bytes, 100u);
  EXPECT_FALSE(specs[1].interdc);
  EXPECT_EQ(specs[2].start_time, static_cast<Time>(250.5 * kMicrosecond));
}

TEST(Replay, EqualStartsKeepFileOrder) {
  // Enough tied rows that an unstable sort moves them (libstdc++ switches
  // from insertion sort at 17): flow ids must follow the trace's rows.
  const std::string path = ::testing::TempDir() + "uno_trace_ties.csv";
  {
    std::ofstream out(path);
    out << "5,6,999,7\n";
    for (int row = 0; row < 40; ++row) out << "0,17," << 100 + row << ",0\n";
  }
  auto specs = load_flow_specs_csv(path, HostSpace{16, 2});
  ASSERT_EQ(specs.size(), 41u);
  for (int row = 0; row < 40; ++row)
    EXPECT_EQ(specs[row].size_bytes, static_cast<std::uint64_t>(100 + row)) << row;
  EXPECT_EQ(specs[40].size_bytes, 999u);
  std::remove(path.c_str());
}

TEST(Replay, RejectsMalformedRows) {
  const char* path = "/tmp/uno_trace_bad.csv";
  for (const char* row : {
           "5,5,100,0",       // self-loop
           "0,99,4096,0",     // dst past the last of 32 hosts
           "-3,5,4096,0",     // negative src
           "0,5,4096,nan",    // start is not a number
           "0,5,4096,1e300",  // start overflows Time in picoseconds
       }) {
    {
      std::ofstream out(path);
      out << row << "\n";
    }
    EXPECT_THROW(load_flow_specs_csv(path, HostSpace{16, 2}), std::runtime_error) << row;
  }
  EXPECT_THROW(load_flow_specs_csv("/nonexistent/file.csv", HostSpace{16, 2}),
               std::runtime_error);
}

}  // namespace
}  // namespace uno
