// Stats layer tests: percentiles, FCT summaries, Jain index, convergence
// detection, distribution summaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "obs/recorder.hpp"
#include "sim/rng.hpp"
#include "stats/fct.hpp"
#include "stats/sampler.hpp"
#include "stats/summary.hpp"

namespace uno {
namespace {

TEST(Percentile, BasicRanks) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.5);
  EXPECT_NEAR(percentile(v, 99), 9.91, 0.01);
}

TEST(Percentile, EmptyAndSingle) {
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0);
  EXPECT_DOUBLE_EQ(percentile({7}, 99), 7);
}

FlowResult result(bool interdc, std::uint64_t size, Time fct) {
  FlowResult r;
  r.interdc = interdc;
  r.size_bytes = size;
  r.completion_time = fct;
  return r;
}

TEST(FctCollectorTest, SplitsByClass) {
  FctCollector c;
  c.add(result(false, 1000, 10 * kMicrosecond));
  c.add(result(false, 1000, 20 * kMicrosecond));
  c.add(result(true, 1000, 3 * kMillisecond));
  EXPECT_EQ(c.summarize(FctCollector::Class::kAll).count, 3u);
  const auto intra = c.summarize(FctCollector::Class::kIntra);
  EXPECT_EQ(intra.count, 2u);
  EXPECT_DOUBLE_EQ(intra.mean_us, 15.0);
  const auto inter = c.summarize(FctCollector::Class::kInter);
  EXPECT_EQ(inter.count, 1u);
  EXPECT_DOUBLE_EQ(inter.mean_us, 3000.0);
}

TEST(FctCollectorTest, SlowdownUsesIdealModel) {
  FctCollector c(FctCollector::pipe_ideal(100 * kGbps, 14 * kMicrosecond, 2 * kMillisecond));
  // Intra flow, 125000 B -> serialization 10 us + 14 us = 24 us ideal.
  c.add(result(false, 125'000, 48 * kMicrosecond));
  const auto s = c.summarize();
  EXPECT_NEAR(s.mean_slowdown, 2.0, 0.01);
}

TEST(FctCollectorTest, SummaryPercentilesMatchSortedPercentiles) {
  // summarize() selects its percentiles rather than sorting; every field must
  // equal what percentile() gives on the same values, to the bit, with ties
  // (few distinct FCTs), at n = 1, 2, odd and even, per class. The ideal
  // model reads a flow's size as its ideal FCT in ps; size 0 has no
  // slowdown, so the slowdown buffer is shorter than the FCT buffer.
  Rng rng(17);
  for (std::size_t n : {1, 2, 3, 4, 7, 10, 101, 1000, 1001}) {
    FctCollector c([](const FlowResult& r) { return static_cast<Time>(r.size_bytes); });
    for (std::size_t i = 0; i < n; ++i) {
      const Time fct = static_cast<Time>(1 + rng.uniform_below(n / 4 + 2)) * 1500;
      c.add(result(rng.uniform_below(3) == 0, rng.uniform_below(4) * 250, fct));
    }
    for (const auto cls : {FctCollector::Class::kAll, FctCollector::Class::kIntra,
                           FctCollector::Class::kInter}) {
      std::vector<double> fcts, slowdowns;
      double sum = 0, slowdown_sum = 0;
      for (const FlowResult& r : c.results()) {
        if ((cls == FctCollector::Class::kIntra && r.interdc) ||
            (cls == FctCollector::Class::kInter && !r.interdc))
          continue;
        fcts.push_back(to_microseconds(r.completion_time));
        sum += fcts.back();
        if (r.size_bytes == 0) continue;
        slowdowns.push_back(static_cast<double>(r.completion_time) /
                            static_cast<double>(r.size_bytes));
        slowdown_sum += slowdowns.back();
      }
      const FctSummary s = c.summarize(cls);
      const std::string where = "n=" + std::to_string(n) + " class " +
                                std::to_string(static_cast<int>(cls));
      ASSERT_EQ(s.count, fcts.size()) << where;
      if (fcts.empty()) continue;
      EXPECT_EQ(s.mean_us, sum / static_cast<double>(fcts.size())) << where;
      EXPECT_EQ(s.p50_us, percentile(fcts, 50)) << where;
      EXPECT_EQ(s.p99_us, percentile(fcts, 99)) << where;
      EXPECT_EQ(s.max_us, percentile(fcts, 100)) << where;
      EXPECT_EQ(s.mean_slowdown,
                slowdowns.empty() ? 0 : slowdown_sum / static_cast<double>(slowdowns.size()))
          << where;
      EXPECT_EQ(s.p99_slowdown, percentile(slowdowns, 99)) << where;
    }
  }
}

TEST(FctCollector, CanonicalizeOrdersByFinishThenId) {
  // Two steps' batches of shuffled records, several finishing at the same
  // time with distinct ids (and different start times, so ties are on the
  // finish, not the FCT); the second step's all finish after the first's.
  std::vector<FlowResult> in;
  for (std::uint64_t id = 1; id <= 40; ++id) {
    FlowResult r;
    r.id = id * 7919 % 41;  // a permutation of 1..40
    const Time step = id <= 25 ? 0 : 20 * kMicrosecond;
    r.start_time = static_cast<Time>(id % 3) * kMicrosecond;
    r.completion_time = step + static_cast<Time>(id % 5) * kMicrosecond +
                        10 * kMicrosecond - r.start_time;
    in.push_back(r);
  }
  FctCollector c;
  for (std::size_t i = 0; i < 25; ++i) c.add(in[i]);
  c.sort_from(0);
  for (std::size_t i = 25; i < in.size(); ++i) c.add(in[i]);
  c.sort_from(25);

  std::vector<FlowResult> want = in;
  std::stable_sort(want.begin(), want.end(), finishes_before);
  ASSERT_EQ(c.results().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(c.results()[i].id, want[i].id) << "position " << i;
    if (i > 0) {
      const FlowResult& a = c.results()[i - 1];
      const FlowResult& b = c.results()[i];
      const Time fa = flow_finish_time(a), fb = flow_finish_time(b);
      EXPECT_TRUE(fa < fb || (fa == fb && a.id < b.id)) << "position " << i;
    }
  }
}

TEST(JainIndex, PerfectAndSkewed) {
  EXPECT_DOUBLE_EQ(jain_index({5, 5, 5, 5}), 1.0);
  EXPECT_NEAR(jain_index({1, 0, 0, 0}), 0.25, 1e-9);
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
}

TEST(TimeSeriesTest, MaxAndMean) {
  TimeSeries s;
  s.add(0, 1);
  s.add(1, 3);
  s.add(2, 2);
  EXPECT_DOUBLE_EQ(s.max(), 3);
  EXPECT_DOUBLE_EQ(s.mean(), 2);
}

TEST(Distribution, QuartilesOfKnownSample) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Distribution d = Distribution::of(v);
  EXPECT_EQ(d.count, 100u);
  EXPECT_DOUBLE_EQ(d.min, 1);
  EXPECT_DOUBLE_EQ(d.max, 100);
  EXPECT_NEAR(d.p50, 50.5, 0.01);
  EXPECT_NEAR(d.p25, 25.75, 0.01);
  EXPECT_NEAR(d.mean, 50.5, 0.01);
}

TEST(Distribution, EmptySample) {
  const Distribution d = Distribution::of({});
  EXPECT_EQ(d.count, 0u);
  EXPECT_DOUBLE_EQ(d.mean, 0);
}

TEST(Csv, TimeSeriesRoundTrip) {
  TimeSeries a{"rate_a", {kMicrosecond, 2 * kMicrosecond}, {1.5, 2.5}};
  TimeSeries b{"rate_b", {kMicrosecond}, {9.0}};  // shorter series
  const char* path = "/tmp/uno_csv_test.csv";
  ASSERT_TRUE(Recorder("/tmp").time_series("uno_csv_test.csv", {&a, &b}));
  std::ifstream in(path);
  std::string l1, l2, l3;
  std::getline(in, l1);
  std::getline(in, l2);
  std::getline(in, l3);
  EXPECT_EQ(l1, "time_us,rate_a,rate_b");
  EXPECT_EQ(l2, "1,1.5,9");
  EXPECT_EQ(l3, "2,2.5,");  // missing cell left empty
}

TEST(Csv, FlowResultsRoundTrip) {
  FlowResult r;
  r.id = 7;
  r.src = 1;
  r.dst = 130;
  r.interdc = true;
  r.size_bytes = 4096;
  r.start_time = kMillisecond;
  r.completion_time = 2 * kMillisecond;
  r.packets_sent = 2;
  r.retransmits = 1;
  r.nacks = 0;
  r.fec_masked = 3;
  const char* path = "/tmp/uno_csv_flows.csv";
  ASSERT_TRUE(
      Recorder("/tmp").flow_results("uno_csv_flows.csv", std::vector<FlowResult>{r}));
  std::ifstream in(path);
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  EXPECT_EQ(header, "id,src,dst,interdc,bytes,start_us,fct_us,pkts,rtx,nacks,fec_masked");
  EXPECT_EQ(row, "7,1,130,1,4096,1000,2000,2,1,0,3");
}

TEST(Recorder, UnwritablePathFails) {
  const Recorder rec("/nonexistent_dir");
  EXPECT_FALSE(rec.flow_results("x.csv", {}));
  TimeSeries s{"x", {0}, {0}};
  EXPECT_FALSE(rec.time_series("x.csv", {&s}));
}

TEST(Recorder, DisabledRecorderWritesNothing) {
  const Recorder off;  // default = disabled
  EXPECT_FALSE(off.enabled());
  TimeSeries s{"x", {0}, {1.0}};
  EXPECT_FALSE(off.time_series("/tmp/uno_should_not_exist.csv", {&s}));
  EXPECT_FALSE(off.flow_results("/tmp/uno_should_not_exist.csv", {}));
  MetricRegistry m;
  EXPECT_FALSE(off.metrics("/tmp/uno_should_not_exist.json", m));
}

TEST(Recorder, PathResolution) {
  EXPECT_EQ(Recorder("/out").path_for("a.csv"), "/out/a.csv");
  EXPECT_EQ(Recorder("/out/").path_for("a.csv"), "/out/a.csv");
  EXPECT_EQ(Recorder(".").path_for("a.csv"), "a.csv");
  EXPECT_EQ(Recorder("/out").path_for("/abs/a.csv"), "/abs/a.csv");
}

TEST(TablePrinter, FormatsWithoutCrashing) {
  Table t({"scheme", "fct"});
  t.add_row({"uno", Table::fmt(3.14159, 3)});
  t.print("smoke");
  EXPECT_EQ(Table::fmt(3.14159, 3), "3.142");
}

}  // namespace
}  // namespace uno
