// Observability subsystem tests (src/obs): flight-recorder ring bounds and
// oldest-dropped overflow, category masking at the UNO_TRACE_EVENT sites,
// Chrome trace_event JSON golden output, the flows CSV and metrics JSON bytes, trace
// determinism, and experiment wiring/metrics.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "farm/json.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "workload/traffic.hpp"

namespace uno {
namespace {

// --- ring bounds -------------------------------------------------------------

TEST(Tracer, RingOverflowDropsOldest) {
  Tracer::Options opt;
  opt.ring_capacity = 4;
  Tracer tr(opt);
  const std::uint32_t c = tr.add_component("q");
  for (std::uint64_t i = 0; i < 10; ++i)
    tr.emit(c, TraceKind::kQueueDepth, static_cast<Time>(i), i, 0);
  EXPECT_EQ(tr.events(c), 4u);
  EXPECT_EQ(tr.dropped(c), 6u);
  // The survivors are the newest four, still in emission order.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(tr.event(c, i).a, 6 + i);
  EXPECT_EQ(tr.total_events(), 4u);
  EXPECT_EQ(tr.total_dropped(), 6u);
}

TEST(Tracer, ZeroCapacityClampsToOne) {
  Tracer::Options opt;
  opt.ring_capacity = 0;
  Tracer tr(opt);
  const std::uint32_t c = tr.add_component("q");
  tr.emit(c, TraceKind::kQueueDrop, 1, 1, 0);
  tr.emit(c, TraceKind::kQueueDrop, 2, 2, 0);
  EXPECT_EQ(tr.events(c), 1u);
  EXPECT_EQ(tr.event(c, 0).a, 2u);  // newest survives
  EXPECT_EQ(tr.dropped(c), 1u);
}

// --- category masking --------------------------------------------------------

TEST(Tracer, CategoryMaskGatesEmission) {
  Tracer::Options opt;
  opt.categories = static_cast<std::uint32_t>(TraceCategory::kCc);
  Tracer tr(opt);
  TraceContext tc{&tr, tr.add_component("flow")};
  // Sites check enabled() through the macro: the queue-kind event must be
  // skipped, the cc-kind event recorded.
  UNO_TRACE_EVENT(tc, TraceKind::kQueueDrop, 10, 1, 2);
  UNO_TRACE_EVENT(tc, TraceKind::kCwnd, 20, 3, 4);
  EXPECT_TRUE(tr.enabled(TraceCategory::kCc));
  EXPECT_FALSE(tr.enabled(TraceCategory::kQueue));
  ASSERT_EQ(tr.events(tc.id), trace_compiled() ? 1u : 0u);
  if (trace_compiled()) {
    EXPECT_EQ(tr.event(tc.id, 0).kind, static_cast<std::uint16_t>(TraceKind::kCwnd));
  }
}

TEST(Tracer, NullTracerContextIsSafe) {
  TraceContext tc;  // tracer == nullptr: the instrumented-but-untraced case
  UNO_TRACE_EVENT(tc, TraceKind::kQueueDrop, 10, 1, 2);  // must not crash
}

TEST(Tracer, ParseCategories) {
  std::uint32_t mask = 0;
  std::string err;
  EXPECT_TRUE(Tracer::parse_categories("all", &mask, &err));
  EXPECT_EQ(mask, kTraceAllCategories);
  EXPECT_TRUE(Tracer::parse_categories("cc,lb", &mask, &err));
  EXPECT_EQ(mask, static_cast<std::uint32_t>(TraceCategory::kCc) |
                      static_cast<std::uint32_t>(TraceCategory::kLb));
  EXPECT_TRUE(Tracer::parse_categories("queue", &mask, &err));
  EXPECT_EQ(mask, static_cast<std::uint32_t>(TraceCategory::kQueue));
  EXPECT_FALSE(Tracer::parse_categories("cc,bogus", &mask, &err));
  EXPECT_NE(err.find("bogus"), std::string::npos);
  EXPECT_NE(err.find("queue"), std::string::npos);  // lists the valid names
}

// --- Chrome trace_event export ----------------------------------------------

TEST(Tracer, ChromeTraceGolden) {
  Tracer tr;
  const std::uint32_t port = tr.add_component("port:a");
  const std::uint32_t flow = tr.add_component("flow:1");
  tr.emit(port, TraceKind::kQueueDepth, 1 * kMicrosecond, 5000, 0);
  tr.emit(flow, TraceKind::kCwnd, 2500 * kNanosecond, 60000, 1);
  tr.emit(port, TraceKind::kQueueDrop, 2500 * kNanosecond, 7, 42);
  // Same-timestamp tie (the drop and the cwnd update): component id order.
  const std::string expected =
      "{\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"uno\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,"
      "\"args\":{\"name\":\"port:a\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":2,"
      "\"args\":{\"name\":\"flow:1\"}},\n"
      "{\"name\":\"queue_depth\",\"cat\":\"queue\",\"ph\":\"C\","
      "\"ts\":1.000000,\"pid\":0,\"tid\":1,"
      "\"args\":{\"bytes\":5000,\"phantom_bytes\":0}},\n"
      "{\"name\":\"drop\",\"cat\":\"queue\",\"ph\":\"i\",\"s\":\"t\","
      "\"ts\":2.500000,\"pid\":0,\"tid\":1,\"args\":{\"flow\":7,\"seq\":42}},\n"
      "{\"name\":\"cwnd\",\"cat\":\"cc\",\"ph\":\"C\","
      "\"ts\":2.500000,\"pid\":0,\"tid\":2,\"args\":{\"cwnd\":60000,\"ecn\":1}}\n"
      "]}\n";
  EXPECT_EQ(tr.chrome_trace_json(), expected);
}

TEST(Tracer, ChromeTraceEscapesNames) {
  Tracer tr;
  tr.add_component("odd\"name\\");
  const std::string json = tr.chrome_trace_json();
  EXPECT_NE(json.find("odd\\\"name\\\\"), std::string::npos);
}

// --- flows CSV export --------------------------------------------------------

std::string read_file(const std::string& path) {
  std::string out;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
    std::fclose(f);
  }
  return out;
}

TEST(Recorder, FlowResultsCsvBytes) {
  FlowResult a;
  a.id = 1;
  a.src = 3;
  a.dst = 17;
  a.interdc = true;
  a.size_bytes = 4096;
  a.start_time = 2 * kMicrosecond;
  a.completion_time = 15 * kMicrosecond;
  a.packets_sent = 1;
  FlowResult b;
  b.id = std::uint64_t{1} << 40;
  b.src = 0;
  b.dst = 5;
  b.size_bytes = 123456789;
  b.start_time = 1234567;         // 1.234567 us
  b.completion_time = 987654321;  // 987.654321 us, cut to 6 significant digits
  b.packets_sent = 30141;
  b.retransmits = 2;
  b.nacks = 1;
  b.fec_masked = 7;
  FlowResult c;
  c.id = 42;
  c.src = 31;
  c.dst = 16;
  c.interdc = false;
  c.size_bytes = 0;
  c.start_time = 0;
  c.completion_time = 12345678900 * kNanosecond;  // exponent form under %.6g
  const std::string file = "uno_obs_flows_csv_test.csv";
  const Recorder rec(::testing::TempDir());
  ASSERT_TRUE(rec.flow_results(file, std::vector<FlowResult>{a, b, c}));
  EXPECT_EQ(read_file(rec.path_for(file)),
            "id,src,dst,interdc,bytes,start_us,fct_us,pkts,rtx,nacks,fec_masked\n"
            "1,3,17,1,4096,2,15,1,0,0,0\n"
            "1099511627776,0,5,0,123456789,1.23457,987.654,30141,2,1,7\n"
            "42,31,16,0,0,0,1.23457e+07,0,0,0,0\n");
  std::remove(rec.path_for(file).c_str());
  // Disabled: no file.
  EXPECT_FALSE(Recorder().flow_results(file, std::vector<FlowResult>{a}));
}

TEST(Recorder, MetricsJsonBytes) {
  // The --metrics and runbench metrics.json writer: registration order,
  // escaped info strings, integer counters, %.6g gauges, and a name longer
  // than any one-line format buffer.
  MetricRegistry m;
  m.set_info("build", "uno \"dev\" C:\\sim");
  m.set_counter("flows.completed", 190072);
  m.set_gauge("fct.all.mean_us", 2.0 / 3.0);
  const std::string long_name(200, 'a');
  m.set_counter(long_name, 7);
  const std::string file = "uno_obs_metrics_test.json";
  const Recorder rec(::testing::TempDir());
  ASSERT_TRUE(rec.metrics(file, m));
  const std::string bytes = read_file(rec.path_for(file));
  std::remove(rec.path_for(file).c_str());
  EXPECT_EQ(bytes,
            "{\n"
            "  \"build\": \"uno \\\"dev\\\" C:\\\\sim\",\n"
            "  \"flows.completed\": 190072,\n"
            "  \"fct.all.mean_us\": 0.666667,\n"
            "  \"" + long_name + "\": 7\n"
            "}\n");
  JsonValue v;
  std::string err;
  ASSERT_TRUE(json_parse(bytes, &v, &err)) << err;
  ASSERT_NE(v.get("build"), nullptr);
  EXPECT_EQ(v.get("build")->string, "uno \"dev\" C:\\sim");
  EXPECT_EQ(v.get("flows.completed")->number, 190072.0);
  ASSERT_NE(v.get(long_name), nullptr);
  EXPECT_EQ(v.get(long_name)->number, 7.0);
  // Disabled: no file.
  EXPECT_FALSE(Recorder().metrics(file, m));
}

// --- experiment wiring -------------------------------------------------------

ExperimentConfig traced_config(std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.seed = seed;
  cfg.fattree_k = 4;
  cfg.trace.enabled = true;
  return cfg;
}

std::string run_traced_json(std::uint64_t seed) {
  Experiment ex(traced_config(seed));
  HostSpace hosts{ex.topo().hosts_per_dc(), ex.topo().num_dcs()};
  ex.spawn_all(make_incast(hosts, 0, 2, 2, 64 * 1024));
  ex.run_to_completion(kSecond);
  return ex.tracer()->chrome_trace_json();
}

TEST(ExperimentTrace, DisabledByDefault) {
  ExperimentConfig cfg;
  cfg.fattree_k = 4;
  Experiment ex(cfg);
  EXPECT_EQ(ex.tracer(), nullptr);
}

TEST(ExperimentTrace, RecordsAndExposesMetrics) {
  Experiment ex(traced_config(1));
  ASSERT_NE(ex.tracer(), nullptr);
  EXPECT_GT(ex.tracer()->num_components(), 0u);
  HostSpace hosts{ex.topo().hosts_per_dc(), ex.topo().num_dcs()};
  ex.spawn_all(make_incast(hosts, 0, 2, 2, 64 * 1024));
  EXPECT_TRUE(ex.run_to_completion(kSecond));
  if (trace_compiled()) {
    EXPECT_GT(ex.tracer()->total_events(), 0u);
  }
  const ExperimentResult r = ex.result();
  EXPECT_TRUE(r.metrics.has("trace.events"));
  EXPECT_EQ(r.metrics.counter("trace.events"), ex.tracer()->total_events());
  EXPECT_EQ(r.metrics.counter("trace.components"), ex.tracer()->num_components());
}

TEST(ExperimentTrace, SameSeedSameBytes) {
  EXPECT_EQ(run_traced_json(7), run_traced_json(7));
}

TEST(ExperimentTrace, CategoryFilterAppliesToRun) {
  ExperimentConfig cfg = traced_config(1);
  cfg.trace.categories = static_cast<std::uint32_t>(TraceCategory::kFault);
  Experiment ex(cfg);
  HostSpace hosts{ex.topo().hosts_per_dc(), ex.topo().num_dcs()};
  ex.spawn_all(make_incast(hosts, 0, 2, 2, 64 * 1024));
  ex.run_to_completion(kSecond);
  // No faults in this run and every other category is masked off.
  EXPECT_EQ(ex.tracer()->total_events(), 0u);
}

}  // namespace
}  // namespace uno
