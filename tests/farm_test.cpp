// Sweep-farm tests: the JSON layer, spec parsing/expansion, the
// content-addressed cache and its failure records, the multi-process driver
// (against shell stubs that crash, hang, flake, or lie), and — when
// UNO_SIM_PATH is defined by the build — end-to-end determinism against the
// real uno_sim worker: re-run = all cache hits, edited dimension re-runs
// only affected cells, interrupted-then-resumed merged output byte-identical
// to an uninterrupted run at any worker count. When UNO_SOURCE_DIR is
// defined, every checked-in spec under examples/farm/ must load and expand.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/sim_options.hpp"
#include "farm/cache.hpp"
#include "farm/driver.hpp"
#include "farm/json.hpp"
#include "farm/spec.hpp"

namespace uno {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// helpers

/// mkdtemp-backed scratch directory, removed on scope exit.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/uno_farm_test_XXXXXX";
    path = ::mkdtemp(tmpl);
    EXPECT_FALSE(path.empty());
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string operator/(const std::string& rel) const { return path + "/" + rel; }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  out << contents;
  ASSERT_TRUE(out.good()) << path;
}

/// A plan of `n` synthetic cells for driver tests (no real sim options).
FarmPlan stub_plan(int n) {
  FarmPlan plan;
  plan.name = "stub";
  plan.coord_keys = {"cell"};
  for (int i = 0; i < n; ++i) {
    FarmCell cell;
    cell.index = static_cast<std::size_t>(i);
    cell.config = {{"cell", std::to_string(i)}};
    cell.coords = cell.config;
    cell.label = "cell=" + std::to_string(i);
    plan.cells.push_back(std::move(cell));
  }
  return plan;
}

/// Result document a well-behaved stub worker writes (the keys merged.csv
/// reads).
const char* kStubResult =
    "{\"done\": 1, \"flows.spawned\": 2, \"flows.completed\": 2,"
    " \"sim.time_ms\": 1, \"fabric.drops\": 0, \"fabric.trims\": 0,"
    " \"fct.all.mean_us\": 10, \"fct.all.p50_us\": 10, \"fct.all.p99_us\": 12,"
    " \"fct.all.max_us\": 12, \"fct.all.mean_slowdown\": 1.5, \"fct.all.p99_slowdown\": 2,"
    " \"fct.intra.mean_us\": 8, \"fct.intra.p99_us\": 9, \"fct.intra.p99_slowdown\": 1.25,"
    " \"fct.inter.mean_us\": 11, \"fct.inter.p99_us\": 12, \"fct.inter.p99_slowdown\": 2.5}";

/// CommandBuilder running `script` under /bin/sh; $1 is the result path.
CommandBuilder shell_command(const std::string& script) {
  return [script](const FarmCell&, const std::string& result_path) {
    return std::vector<std::string>{"/bin/sh", "-c", script, "stub", result_path};
  };
}

FarmOptions quick_opts() {
  FarmOptions opts;
  opts.jobs = 2;
  opts.timeout_s = 20;
  opts.retries = 1;
  opts.backoff_ms = 1;  // keep retry tests fast
  return opts;
}

// ---------------------------------------------------------------------------
// JSON layer

TEST(FarmJson, ParsesNestedDocumentPreservingKeyOrder) {
  JsonValue v;
  std::string err;
  ASSERT_TRUE(json_parse(
      "{\"z\": [1, 2.5, -3e2], \"a\": {\"s\": \"q\\\"\\n\\u0041\"},"
      " \"flag\": true, \"none\": null}",
      &v, &err))
      << err;
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.object.size(), 4u);
  // Insertion order is semantic (it fixes grid expansion order).
  EXPECT_EQ(v.object[0].first, "z");
  EXPECT_EQ(v.object[1].first, "a");
  const JsonValue* z = v.get("z");
  ASSERT_TRUE(z != nullptr && z->is_array());
  ASSERT_EQ(z->array.size(), 3u);
  EXPECT_DOUBLE_EQ(z->array[2].number, -300.0);
  const JsonValue* s = v.get("a")->get("s");
  ASSERT_TRUE(s != nullptr && s->is_string());
  EXPECT_EQ(s->string, "q\"\nA");
  EXPECT_TRUE(v.get("flag")->boolean);
  EXPECT_EQ(v.get("none")->kind, JsonValue::Kind::kNull);
  EXPECT_EQ(v.get("absent"), nullptr);
}

TEST(FarmJson, RejectsDuplicateKeys) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(json_parse("{\"k\": 1, \"k\": 2}", &v, &err));
  EXPECT_NE(err.find("duplicate"), std::string::npos) << err;
}

TEST(FarmJson, ErrorsCarryLineNumbers) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(json_parse("{\n  \"k\": 1,\n  oops\n}", &v, &err));
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
}

TEST(FarmJson, RejectsTrailingGarbageAndDeepNesting) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(json_parse("{} x", &v, &err));
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(json_parse(deep, &v, &err));
  EXPECT_NE(err.find("deep"), std::string::npos) << err;
}

TEST(FarmJson, NumberFormattingIsShortestRoundTrip) {
  EXPECT_EQ(json_number(0.1), "0.1");
  EXPECT_EQ(json_number(2), "2");
  EXPECT_EQ(json_number(-0.25), "-0.25");
  // An awkward value still round-trips exactly, whatever its spelling.
  const double v = 1.0 / 3.0;
  EXPECT_EQ(std::strtod(json_number(v).c_str(), nullptr), v);
  // Non-finite values, which a gauge can hold, print as printf spells them.
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "-inf");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "nan");
}

TEST(FarmJson, QuoteEscapesControlCharacters) {
  EXPECT_EQ(json_quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
}

// ---------------------------------------------------------------------------
// range grammar error paths (parse_range, behind farm range dimensions)

TEST(FarmSweep, SuggestsNearestKeyForTypo) {
  FarmSpec spec;
  std::string err;
  EXPECT_FALSE(FarmSpec::parse("{\"name\": \"x\", \"dims\": {\"lod\": \"0.1:0.9:4\"}}",
                               make_sim_options(), &spec, &err));
  EXPECT_NE(err.find("load"), std::string::npos) << err;
  EXPECT_NE(err.find("did you mean"), std::string::npos) << err;
}

TEST(FarmSweep, RejectsInvertedRange) {
  double lo = 0, hi = 0;
  int n = 0;
  std::string err;
  EXPECT_FALSE(parse_range("0.9:0.1:4", &lo, &hi, &n, &err));
  EXPECT_NE(err.find("LO must be <= HI"), std::string::npos) << err;
}

TEST(FarmSweep, RejectsNonPositiveCount) {
  double lo = 0, hi = 0;
  int n = 0;
  std::string err;
  EXPECT_FALSE(parse_range("0.1:0.9:0", &lo, &hi, &n, &err));
  EXPECT_NE(err.find("N must be >= 1"), std::string::npos) << err;
}

TEST(FarmSweep, RejectsMalformedRange) {
  double lo = 0, hi = 0;
  int n = 0;
  std::string err;
  EXPECT_FALSE(parse_range("0.1-0.9", &lo, &hi, &n, &err));
  EXPECT_NE(err.find("malformed"), std::string::npos) << err;
  EXPECT_FALSE(parse_range("load", &lo, &hi, &n, &err));
  EXPECT_FALSE(parse_range("0.1:0.9:4x", &lo, &hi, &n, &err));
}

// ---------------------------------------------------------------------------
// spec parsing + expansion

class FarmSpecTest : public ::testing::Test {
 protected:
  OptionSet opts_ = make_sim_options();

  FarmSpec parse_ok(const std::string& text) {
    FarmSpec spec;
    std::string err;
    EXPECT_TRUE(FarmSpec::parse(text, opts_, &spec, &err)) << err;
    return spec;
  }
  std::string parse_err(const std::string& text) {
    FarmSpec spec;
    std::string err;
    EXPECT_FALSE(FarmSpec::parse(text, opts_, &spec, &err)) << "unexpectedly parsed";
    return err;
  }
};

TEST_F(FarmSpecTest, ExpandsGridRowMajorWithSeedsInnermost) {
  // Both dimensions are options of poisson, uno_sim's default scenario.
  const FarmSpec spec = parse_ok(
      "{\"name\": \"grid\", \"base\": {\"scheme\": \"uno\"},"
      " \"dims\": {\"load\": [0.2, 0.4], \"duration-ms\": \"2:4:2\"}, \"seeds\": 2}");
  const FarmPlan plan = expand(spec);
  ASSERT_EQ(plan.cells.size(), 8u);
  EXPECT_EQ(plan.coord_keys, (std::vector<std::string>{"load", "duration-ms", "seed"}));
  // First dimension outermost, seed block innermost.
  using Coords = std::vector<std::pair<std::string, std::string>>;
  EXPECT_EQ(plan.cells[0].coords,
            (Coords{{"load", "0.2"}, {"duration-ms", "2"}, {"seed", "1"}}));
  EXPECT_EQ(plan.cells[1].coords,
            (Coords{{"load", "0.2"}, {"duration-ms", "2"}, {"seed", "2"}}));
  EXPECT_EQ(plan.cells[2].coords,
            (Coords{{"load", "0.2"}, {"duration-ms", "4"}, {"seed", "1"}}));
  EXPECT_EQ(plan.cells[4].coords,
            (Coords{{"load", "0.4"}, {"duration-ms", "2"}, {"seed", "1"}}));
  EXPECT_EQ(plan.cells[7].coords,
            (Coords{{"load", "0.4"}, {"duration-ms", "4"}, {"seed", "2"}}));
  EXPECT_EQ(plan.cells[7].label, "load=0.4 duration-ms=4 seed=2");
  EXPECT_EQ(plan.cells[7].index, 7u);
}

TEST_F(FarmSpecTest, RangeDimensionIsEvenlySpaced) {
  const FarmSpec spec =
      parse_ok("{\"name\": \"r\", \"dims\": {\"load\": \"0.2:0.8:4\"}}");
  ASSERT_EQ(spec.dims.size(), 1u);
  const std::vector<std::string>& v = spec.dims[0].values;
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], "0.2");
  EXPECT_NEAR(std::strtod(v[1].c_str(), nullptr), 0.4, 1e-12);
  EXPECT_NEAR(std::strtod(v[2].c_str(), nullptr), 0.6, 1e-12);
  EXPECT_EQ(v[3], "0.8");
}

TEST_F(FarmSpecTest, SeedBaseComesFromBaseSeed) {
  const FarmSpec spec = parse_ok(
      "{\"name\": \"s\", \"base\": {\"seed\": 7}, \"seeds\": 2}");
  EXPECT_EQ(spec.seed_base, 7u);
  const FarmPlan plan = expand(spec);
  ASSERT_EQ(plan.cells.size(), 2u);
  // seed is re-attached per cell, exactly once.
  using Coords = std::vector<std::pair<std::string, std::string>>;
  EXPECT_EQ(plan.cells[0].config, (Coords{{"seed", "7"}}));
  EXPECT_EQ(plan.cells[1].config, (Coords{{"seed", "8"}}));
  // A seed given as a string is the same seed, not 0.
  EXPECT_EQ(parse_ok("{\"name\": \"s\", \"base\": {\"seed\": \"7\"}}").seed_base, 7u);
}

TEST_F(FarmSpecTest, SingleCellPlanHasLabel) {
  const FarmPlan plan =
      expand(parse_ok("{\"name\": \"one\", \"base\": {\"scheme\": \"uno\"}}"));
  ASSERT_EQ(plan.cells.size(), 1u);
  EXPECT_EQ(plan.cells[0].label, "single");
  EXPECT_TRUE(plan.coord_keys.empty());
}

TEST_F(FarmSpecTest, CanonicalFormSortsKeys) {
  FarmCell cell;
  cell.config = {{"z", "1"}, {"a", "2"}};
  EXPECT_EQ(cell.canonical(), "a=2\nz=1\n");
}

TEST_F(FarmSpecTest, RejectsUnknownKeysWithSuggestion) {
  const std::string err =
      parse_err("{\"name\": \"x\", \"base\": {\"schem\": \"uno\"}}");
  EXPECT_NE(err.find("did you mean"), std::string::npos) << err;
  EXPECT_NE(err.find("scheme"), std::string::npos) << err;
  EXPECT_NE(parse_err("{\"name\": \"x\", \"dims\": {\"lod\": [0.1]}}").find("load"),
            std::string::npos);
  // Scenario names are checked against the registry, in base and dims.
  EXPECT_NE(parse_err("{\"name\": \"x\", \"base\": {\"scenario\": \"poisso\"}}")
                .find("unknown scenario poisso (did you mean poisson?)"),
            std::string::npos);
  EXPECT_NE(parse_err("{\"name\": \"x\", \"dims\": {\"scenario\": [\"incast\", \"shift\"]}}")
                .find("unknown scenario shift"),
            std::string::npos);
}

TEST_F(FarmSpecTest, RejectsReservedAndShadowedKeys) {
  EXPECT_NE(parse_err("{\"name\": \"x\", \"base\": {\"one-cell\": \"a\"}}")
                .find("farm-reserved"),
            std::string::npos);
  // A cell's scenario keys become its one --scenario-opt.
  EXPECT_NE(parse_err("{\"name\": \"x\", \"base\": {\"scenario-opt\": \"load=0.5\"}}")
                .find("\"scenario-opt\" is farm-reserved"),
            std::string::npos);
  EXPECT_NE(parse_err("{\"name\": \"x\", \"dims\": {\"seed\": [1, 2]}}")
                .find("\"seeds\" block"),
            std::string::npos);
  EXPECT_NE(parse_err("{\"name\": \"x\", \"base\": {\"load\": 0.5},"
                      " \"dims\": {\"load\": [0.1]}}")
                .find("also set in \"base\""),
            std::string::npos);
}

TEST_F(FarmSpecTest, RejectsBadRangesListsAndSeeds) {
  EXPECT_NE(parse_err("{\"name\": \"x\", \"dims\": {\"load\": \"0.9:0.1:3\"}}")
                .find("LO must be <= HI"),
            std::string::npos);
  EXPECT_NE(parse_err("{\"name\": \"x\", \"dims\": {\"load\": \"0.1:0.9:0\"}}")
                .find("N must be >= 1"),
            std::string::npos);
  EXPECT_NE(parse_err("{\"name\": \"x\", \"dims\": {\"load\": \"0.1..0.9\"}}")
                .find("malformed"),
            std::string::npos);
  EXPECT_NE(parse_err("{\"name\": \"x\", \"dims\": {\"load\": []}}")
                .find("at least one value"),
            std::string::npos);
  EXPECT_NE(parse_err("{\"name\": \"x\", \"seeds\": 0}").find("integer >= 1"),
            std::string::npos);
  EXPECT_NE(parse_err("{\"name\": \"x\", \"seeds\": 2.5}").find("integer >= 1"),
            std::string::npos);
  // Numeric options validate values ("abc" is not a load).
  EXPECT_FALSE(parse_err("{\"name\": \"x\", \"dims\": {\"load\": [\"abc\"]}}").empty());
}

TEST_F(FarmSpecTest, RejectsStructuralProblems) {
  EXPECT_NE(parse_err("{\"nome\": \"x\"}").find("unknown top-level key"),
            std::string::npos);
  EXPECT_NE(parse_err("{\"name\": \"\"}").find("required"), std::string::npos);
  EXPECT_NE(parse_err("{\"name\": \"a b\"}").find("A-Za-z0-9"), std::string::npos);
  EXPECT_NE(parse_err("[1, 2]").find("object"), std::string::npos);
  EXPECT_NE(parse_err("{\"name\": \"x\", \"dims\": {\"load\": 0.5}}")
                .find("range or a"),
            std::string::npos);
  // Grid-size guard.
  EXPECT_NE(parse_err("{\"name\": \"x\", \"dims\": {\"load\": \"0:1:600\","
                      " \"duration-ms\": \"1:600:600\"}}")
                .find("100000"),
            std::string::npos);
}

TEST_F(FarmSpecTest, ScenarioKeysMustBeDeclaredByEveryScenarioTheSpecRuns) {
  // flows is incast's option, not poisson's (uno_sim's default scenario).
  std::string err = parse_err("{\"name\": \"x\", \"dims\": {\"flows\": [2]}}");
  EXPECT_NE(err.find("unknown option flows for scenario poisson"), std::string::npos) << err;
  // Over a scenario dimension, every value must declare the key.
  err = parse_err("{\"name\": \"x\", \"dims\": {\"scenario\": [\"tornado\", \"incast\"],"
                  " \"inter-frac\": [0.1, 0.5]}}");
  EXPECT_NE(err.find("unknown option inter-frac for scenario incast"), std::string::npos)
      << err;
  parse_ok("{\"name\": \"x\", \"dims\": {\"scenario\": [\"tornado\", \"rpc_churn\"],"
           " \"inter-frac\": [0.1, 0.5]}}");
  // A scenario key's value is checked against that scenario's table, and
  // may hold no ',': the cell's scenario keys travel as one --scenario-opt.
  err = parse_err("{\"name\": \"x\", \"base\": {\"scenario\": \"incast\", \"flows\": \"two\"}}");
  EXPECT_NE(err.find("scenario incast: bad value for flows"), std::string::npos) << err;
  err = parse_err("{\"name\": \"x\", \"base\": {\"scenario\": \"replay\"},"
                  " \"dims\": {\"file\": [\"a,b.csv\"]}}");
  EXPECT_NE(err.find("dims.file: a scenario option's value cannot contain ','"),
            std::string::npos)
      << err;
  // A uno_sim option's value may hold one: it is a flag of its own.
  parse_ok("{\"name\": \"x\", \"base\": {\"cross-rtt\": \"0-1=2,1-0=2\"}}");
}

#ifdef UNO_SOURCE_DIR
// Every checked-in spec loads against the real option table and expands to
// the cell count its docs and checked-in results assume. A new spec file
// must be added here; claims.json is the paper checker's input, not a spec.
TEST_F(FarmSpecTest, CheckedInSpecsLoadAndExpand) {
  const std::string root = std::string(UNO_SOURCE_DIR) + "/examples/farm/";
  const std::vector<std::pair<std::string, std::size_t>> specs = {
      {"smoke.json", 4},         {"scenario_grid.json", 12}, {"load_fec_grid.json", 120},
      {"paper/fig9.json", 8},    {"paper/fig10.json", 16},   {"paper/fig11.json", 12},
      {"paper/fig13a.json", 256}, {"paper/fig13b.json", 400}, {"paper/fig13c.json", 8}};
  std::vector<std::string> listed;
  for (const auto& [rel, cells] : specs) {
    listed.push_back(rel);
    FarmSpec spec;
    std::string err;
    ASSERT_TRUE(FarmSpec::load(root + rel, opts_, &spec, &err)) << err;
    EXPECT_EQ(expand(spec).cells.size(), cells) << rel;
  }
  std::vector<std::string> found;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (entry.path().extension() != ".json") continue;
    const std::string rel = fs::relative(entry.path(), root).string();
    if (rel != "paper/claims.json") found.push_back(rel);
  }
  std::sort(listed.begin(), listed.end());
  std::sort(found.begin(), found.end());
  EXPECT_EQ(found, listed);
}
#endif  // UNO_SOURCE_DIR

// ---------------------------------------------------------------------------
// cache

TEST(FarmCache, KeyIsStableAndSensitive) {
  FarmCell a;
  a.config = {{"load", "0.5"}, {"seed", "1"}};
  FarmCell b = a;
  EXPECT_EQ(farm_cell_key(a, "build1"), farm_cell_key(b, "build1"));
  EXPECT_EQ(farm_cell_key(a, "build1").size(), 16u);
  EXPECT_EQ(farm_cell_key(a, "build1").find_first_not_of("0123456789abcdef"),
            std::string::npos);
  b.config[0].second = "0.6";  // value change re-keys
  EXPECT_NE(farm_cell_key(a, "build1"), farm_cell_key(b, "build1"));
  // Rebuilding the worker re-keys everything.
  EXPECT_NE(farm_cell_key(a, "build1"), farm_cell_key(a, "build2"));
  // Plan order does not affect the key (canonical form is sorted).
  FarmCell c;
  c.config = {{"seed", "1"}, {"load", "0.5"}};
  c.index = 99;
  EXPECT_EQ(farm_cell_key(a, "build1"), farm_cell_key(c, "build1"));
}

TEST(FarmCache, KeyFollowsTheBytesOfReplayedFiles) {
  TempDir tmp;
  const std::string trace = tmp / "flows.csv";
  write_file(trace, "0,17,4096,0\n");
  FarmCell replay;
  replay.config = {{"scenario", "replay"}, {"file", trace}};
  const std::string replay_key = farm_cell_key(replay, "b");
  // Same name, new bytes: the cell re-keys; the old bytes key as before.
  write_file(trace, "0,17,4096,0\n1,2,4096,10\n");
  EXPECT_NE(farm_cell_key(replay, "b"), replay_key);
  write_file(trace, "0,17,4096,0\n");
  EXPECT_EQ(farm_cell_key(replay, "b"), replay_key);
  // A file that cannot be read keys apart from every readable one.
  fs::remove(trace);
  EXPECT_NE(farm_cell_key(replay, "b"), replay_key);
}

TEST(FarmCache, StoreIsAtomicRename) {
  TempDir tmp;
  ResultCache cache(tmp / "cache");
  std::string err;
  ASSERT_TRUE(cache.ensure_dir(&err)) << err;
  EXPECT_FALSE(cache.has("deadbeefdeadbeef"));
  const std::string staged = tmp / "staged.json";
  write_file(staged, "{\"done\": true}");
  ASSERT_TRUE(cache.store("deadbeefdeadbeef", staged, &err)) << err;
  EXPECT_FALSE(fs::exists(staged));  // moved, not copied
  EXPECT_TRUE(cache.has("deadbeefdeadbeef"));
  std::string contents;
  ASSERT_TRUE(cache.read("deadbeefdeadbeef", &contents));
  EXPECT_EQ(contents, "{\"done\": true}");
  EXPECT_FALSE(cache.read("0000000000000000", &contents));
}

TEST(FarmCache, FailureRecordRoundTrip) {
  TempDir tmp;
  ResultCache cache(tmp / "cache");
  std::string err;
  ASSERT_TRUE(cache.ensure_dir(&err)) << err;
  CellFailure failure;
  EXPECT_FALSE(cache.read_failure("deadbeefdeadbeef", &failure));
  ASSERT_TRUE(cache.store_failure("deadbeefdeadbeef", {3, "exit \"9\""}, &err)) << err;
  ASSERT_TRUE(cache.read_failure("deadbeefdeadbeef", &failure));
  EXPECT_EQ(failure.attempts, 3);
  EXPECT_EQ(failure.error, "exit \"9\"");
  // A failure is not a result, and its temp file is gone once it landed.
  EXPECT_FALSE(cache.has("deadbeefdeadbeef"));
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(cache.dir()))
    files.push_back(entry.path().filename().string());
  EXPECT_EQ(files, std::vector<std::string>{"deadbeefdeadbeef.failed.json"});
}

// ---------------------------------------------------------------------------
// driver vs shell stubs

TEST(FarmDriver, RunsCellsAndWritesMergedTable) {
  TempDir tmp;
  FarmReport report;
  std::string err;
  const std::string out = tmp / "farm";
  const CommandBuilder ok = shell_command(std::string("printf '%s' '") +
                                          kStubResult + "' > \"$1\"");
  ASSERT_TRUE(run_farm(stub_plan(3), "b1", out, quick_opts(), ok, &report, &err))
      << err;
  EXPECT_EQ(report.cells, 3u);
  EXPECT_EQ(report.executed, 3u);
  EXPECT_EQ(report.cache_hits, 0u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_TRUE(report.all_ok());
  ASSERT_TRUE(report.merged_written);
  const std::string merged = read_file(report.merged_path);
  EXPECT_EQ(merged.substr(0, merged.find('\n')),
            "cell,cell,completed,done,mean_us,p50_us,p99_us,max_us,"
            "mean_slowdown,p99_slowdown,intra_mean_us,intra_p99_us,intra_p99_slowdown,"
            "inter_mean_us,inter_p99_us,inter_p99_slowdown,drops,trims,sim_ms,"
            "iterations,mean_iter_us,status");
  // The stub is an open-loop result: no iterations, so those cells are empty.
  EXPECT_NE(merged.find("0,0,2/2,yes,10,10,12,12,1.5,2,8,9,1.25,11,12,2.5,0,0,1,,,ok"),
            std::string::npos)
      << merged;

  // Same farm again: every cell is a cache hit, nothing executes, and the
  // merged table is rewritten byte-identically.
  FarmReport again;
  ASSERT_TRUE(run_farm(stub_plan(3), "b1", out, quick_opts(), ok, &again, &err))
      << err;
  EXPECT_EQ(again.cache_hits, 3u);
  EXPECT_EQ(again.executed, 0u);
  EXPECT_EQ(read_file(again.merged_path), merged);

  // A different build id re-keys everything: no hits.
  FarmReport rebuilt;
  ASSERT_TRUE(run_farm(stub_plan(3), "b2", out, quick_opts(), ok, &rebuilt, &err))
      << err;
  EXPECT_EQ(rebuilt.cache_hits, 0u);
  EXPECT_EQ(rebuilt.executed, 3u);
}

TEST(FarmDriver, CrashingCellIsRetriedThenIsolated) {
  TempDir tmp;
  // Cell 0 always exits 3; the others succeed. The farm must finish.
  const CommandBuilder cmd = shell_command(
      std::string("case \"$1\" in *cell0_*) exit 3;; esac; printf '%s' '") +
      kStubResult + "' > \"$1\"");
  FarmReport report;
  std::string err;
  ASSERT_TRUE(
      run_farm(stub_plan(2), "b1", tmp / "farm", quick_opts(), cmd, &report, &err))
      << err;
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.executed, 2u);
  EXPECT_FALSE(report.all_ok());
  const CellOutcome& bad = report.outcomes[0];
  EXPECT_EQ(bad.status, CellOutcome::Status::kFailed);
  EXPECT_EQ(bad.attempts, 2);  // 1 + retries
  EXPECT_EQ(bad.error, "exit 3");
  EXPECT_EQ(report.outcomes[1].status, CellOutcome::Status::kOk);
  // A failed farm still writes the merged table, with the failure visible.
  ASSERT_TRUE(report.merged_written);
  EXPECT_NE(read_file(report.merged_path).find(",failed"), std::string::npos);

  // Re-run: the recorded failure is not re-attempted.
  FarmReport again;
  ASSERT_TRUE(
      run_farm(stub_plan(2), "b1", tmp / "farm", quick_opts(), cmd, &again, &err))
      << err;
  EXPECT_EQ(again.executed, 0u);
  EXPECT_EQ(again.cache_hits, 1u);
  EXPECT_EQ(again.failed, 1u);
  EXPECT_TRUE(again.outcomes[0].from_record);
  EXPECT_EQ(again.outcomes[0].attempts, 2);
  EXPECT_EQ(again.outcomes[0].error, "exit 3");
}

TEST(FarmDriver, ConfigErrorExitIsFinalAfterOneAttempt) {
  TempDir tmp;
  // Exit 2 is the worker's configuration error, which every retry would
  // repeat: one attempt, recorded, and no backoff waited out. A retry would
  // hold the test for at least the first 10 s backoff.
  const std::string tally = tmp / "tally";
  const CommandBuilder cmd =
      shell_command(std::string("echo x >> \"") + tally + "\"; exit 2");
  FarmOptions opts = quick_opts();
  opts.retries = 2;
  opts.backoff_ms = 10'000;
  FarmReport report;
  std::string err;
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(run_farm(stub_plan(1), "b1", tmp / "farm", opts, cmd, &report, &err))
      << err;
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(8));
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.outcomes[0].attempts, 1);
  EXPECT_EQ(report.outcomes[0].error, "exit 2");
  EXPECT_EQ(read_file(tally), "x\n");
  const std::string key = farm_cell_key(stub_plan(1).cells[0], "b1");
  EXPECT_EQ(read_file(tmp / ("farm/cache/" + key + ".failed.json")),
            "{\n  \"attempts\": 1,\n  \"error\": \"exit 2\"\n}\n");
}

TEST(FarmDriver, FlakyCellSucceedsOnRetry) {
  TempDir tmp;
  // First attempt leaves a marker and dies; the retry finds it and succeeds.
  const std::string marker = tmp / "marker";
  const CommandBuilder cmd = shell_command(
      std::string("if [ -e \"") + marker + "\" ]; then printf '%s' '" + kStubResult +
      "' > \"$1\"; else : > \"" + marker + "\"; exit 7; fi");
  FarmReport report;
  std::string err;
  ASSERT_TRUE(
      run_farm(stub_plan(1), "b1", tmp / "farm", quick_opts(), cmd, &report, &err))
      << err;
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.outcomes[0].status, CellOutcome::Status::kOk);
  EXPECT_EQ(report.outcomes[0].attempts, 2);
}

TEST(FarmDriver, HangingCellIsKilledOnTimeout) {
  TempDir tmp;
  FarmOptions opts = quick_opts();
  opts.timeout_s = 0.2;
  opts.retries = 0;
  FarmReport report;
  std::string err;
  ASSERT_TRUE(run_farm(stub_plan(1), "b1", tmp / "farm", opts,
                       shell_command("sleep 30"), &report, &err))
      << err;
  EXPECT_EQ(report.failed, 1u);
  EXPECT_NE(report.outcomes[0].error.find("timeout"), std::string::npos)
      << report.outcomes[0].error;
}

TEST(FarmDriver, EmptyResultIsAFailure) {
  TempDir tmp;
  FarmOptions opts = quick_opts();
  opts.retries = 0;
  FarmReport report;
  std::string err;
  // Exits 0 without writing anything: not a success.
  ASSERT_TRUE(run_farm(stub_plan(1), "b1", tmp / "farm", opts,
                       shell_command("exit 0"), &report, &err))
      << err;
  EXPECT_EQ(report.failed, 1u);
  EXPECT_NE(report.outcomes[0].error.find("no result"), std::string::npos)
      << report.outcomes[0].error;
}

TEST(FarmDriver, FreshDiscardsCacheAndJournal) {
  TempDir tmp;
  // Cell 0 fails for good and cell 1 is cached; --fresh forgets both, the
  // failure record with the result.
  const CommandBuilder flaky = shell_command(
      std::string("case \"$1\" in *cell0_*) exit 3;; esac; printf '%s' '") +
      kStubResult + "' > \"$1\"");
  const CommandBuilder ok = shell_command(std::string("printf '%s' '") +
                                          kStubResult + "' > \"$1\"");
  FarmReport report;
  std::string err;
  ASSERT_TRUE(
      run_farm(stub_plan(2), "b1", tmp / "farm", quick_opts(), flaky, &report, &err))
      << err;
  EXPECT_EQ(report.failed, 1u);
  FarmOptions opts = quick_opts();
  opts.fresh = true;
  ASSERT_TRUE(run_farm(stub_plan(2), "b1", tmp / "farm", opts, ok, &report, &err))
      << err;
  EXPECT_EQ(report.cache_hits, 0u);
  EXPECT_EQ(report.executed, 2u);
  EXPECT_EQ(report.failed, 0u);
}

TEST(FarmDriver, StopAfterLeavesResumableStateAndNoMergedTable) {
  TempDir tmp;
  const CommandBuilder ok = shell_command(std::string("printf '%s' '") +
                                          kStubResult + "' > \"$1\"");
  FarmOptions opts = quick_opts();
  opts.jobs = 1;
  opts.stop_after = 2;
  FarmReport report;
  std::string err;
  const std::string out = tmp / "farm";
  ASSERT_TRUE(run_farm(stub_plan(4), "b1", out, opts, ok, &report, &err)) << err;
  EXPECT_TRUE(report.stopped_early);
  EXPECT_EQ(report.executed, 2u);
  EXPECT_FALSE(report.merged_written);
  EXPECT_FALSE(fs::exists(out + "/merged.csv"));

  // Resume: only the remaining cells run, then the table appears.
  FarmReport resumed;
  ASSERT_TRUE(run_farm(stub_plan(4), "b1", out, quick_opts(), ok, &resumed, &err))
      << err;
  EXPECT_EQ(resumed.cache_hits, 2u);
  EXPECT_EQ(resumed.executed, 2u);
  EXPECT_TRUE(resumed.merged_written);
}

TEST(FarmDriver, SimCommandPacksScenarioKeysIntoOneScenarioOpt) {
  FarmCell cell;
  cell.config = {{"scenario", "incast"}, {"flows", "2"},    {"quick", "true"},
                 {"queues", "false"},    {"size-mb", "0.25"}, {"seed", "3"}};
  EXPECT_EQ(sim_command("uno_sim")(cell, "r.json"),
            (std::vector<std::string>{"uno_sim", "--one-cell", "r.json", "--scenario=incast",
                                      "--quick", "--seed=3",
                                      "--scenario-opt=flows=2,size-mb=0.25"}));
  // A cell of uno_sim options only has no --scenario-opt.
  cell.config = {{"scheme", "uno"}, {"seed", "1"}};
  EXPECT_EQ(sim_command("uno_sim")(cell, "r.json"),
            (std::vector<std::string>{"uno_sim", "--one-cell", "r.json", "--scheme=uno",
                                      "--seed=1"}));
}

// ---------------------------------------------------------------------------
// end-to-end against the real uno_sim worker
#ifdef UNO_SIM_PATH

/// A tiny but real farm: 2 incast cells (or 4 with the wider spec below).
const char* kItSpec =
    "{\"name\": \"it\","
    " \"base\": {\"scheme\": \"uno\", \"scenario\": \"incast\", \"k\": 4,"
    "            \"size-mb\": 0.25, \"deadline-ms\": 200},"
    " \"dims\": {\"flows\": [2]}, \"seeds\": 2}";
const char* kItSpecWider =
    "{\"name\": \"it\","
    " \"base\": {\"scheme\": \"uno\", \"scenario\": \"incast\", \"k\": 4,"
    "            \"size-mb\": 0.25, \"deadline-ms\": 200},"
    " \"dims\": {\"flows\": [2, 4]}, \"seeds\": 2}";

class FarmIntegrationTest : public ::testing::Test {
 protected:
  OptionSet opts_ = make_sim_options();

  FarmPlan plan(const char* text) {
    FarmSpec spec;
    std::string err;
    EXPECT_TRUE(FarmSpec::parse(text, opts_, &spec, &err)) << err;
    return expand(spec);
  }
  FarmReport run(const FarmPlan& p, const std::string& out, int jobs,
                 std::size_t stop_after = 0) {
    FarmOptions o;
    o.jobs = jobs;
    o.timeout_s = 120;
    o.retries = 0;
    o.stop_after = stop_after;
    FarmReport report;
    std::string err;
    EXPECT_TRUE(run_farm(p, "itest-build", out, o, sim_command(UNO_SIM_PATH),
                         &report, &err))
        << err;
    return report;
  }
};

TEST_F(FarmIntegrationTest, UnchangedSpecReRunExecutesNothing) {
  TempDir tmp;
  const FarmPlan p = plan(kItSpec);
  const FarmReport first = run(p, tmp / "farm", 2);
  EXPECT_EQ(first.executed, 2u);
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_EQ(first.failed, 0u);
  ASSERT_TRUE(first.merged_written);
  const std::string merged = read_file(first.merged_path);

  const FarmReport second = run(p, tmp / "farm", 2);
  EXPECT_EQ(second.executed, 0u);  // counters pinned: a re-run is free
  EXPECT_EQ(second.cache_hits, 2u);
  EXPECT_EQ(read_file(second.merged_path), merged);
}

TEST_F(FarmIntegrationTest, EditedDimensionReRunsOnlyAffectedCells) {
  TempDir tmp;
  run(plan(kItSpec), tmp / "farm", 2);
  // Widening flows [2] -> [2, 4] adds 2 cells; the 2 existing ones hit.
  const FarmReport widened = run(plan(kItSpecWider), tmp / "farm", 2);
  EXPECT_EQ(widened.cells, 4u);
  EXPECT_EQ(widened.cache_hits, 2u);
  EXPECT_EQ(widened.executed, 2u);
  EXPECT_EQ(widened.failed, 0u);
}

TEST_F(FarmIntegrationTest, InterruptedThenResumedMatchesFreshRunByteForByte) {
  TempDir tmp;
  const FarmPlan p = plan(kItSpecWider);
  // Fresh, uninterrupted reference run.
  const FarmReport fresh = run(p, tmp / "fresh", 2);
  ASSERT_TRUE(fresh.merged_written);
  const std::string reference = read_file(fresh.merged_path);

  // Interrupted after 1 cell, resumed with a different worker count.
  const FarmReport cut = run(p, tmp / "resumed", 1, /*stop_after=*/1);
  EXPECT_TRUE(cut.stopped_early);
  EXPECT_FALSE(cut.merged_written);
  const FarmReport resumed = run(p, tmp / "resumed", 4);
  EXPECT_FALSE(resumed.stopped_early);
  EXPECT_EQ(resumed.cache_hits + resumed.executed, 4u);
  ASSERT_TRUE(resumed.merged_written);
  EXPECT_EQ(read_file(resumed.merged_path), reference);
}

TEST_F(FarmIntegrationTest, WorkerCountDoesNotChangeMergedOutput) {
  TempDir tmp;
  const FarmPlan p = plan(kItSpecWider);
  const FarmReport serial = run(p, tmp / "j1", 1);
  const FarmReport wide = run(p, tmp / "j8", 8);
  ASSERT_TRUE(serial.merged_written);
  ASSERT_TRUE(wide.merged_written);
  EXPECT_EQ(read_file(serial.merged_path), read_file(wide.merged_path));
}

TEST_F(FarmIntegrationTest, UnmatchedFaultTargetFailsTheCellAndCachesNothing) {
  TempDir tmp;
  // "bordr" matches no link: the worker must refuse the cell (exit 2)
  // instead of running it fault-free under the misspelled fault's key.
  const FarmReport r = run(plan("{\"name\": \"it\","
                                " \"base\": {\"scheme\": \"uno\", \"scenario\": \"incast\","
                                " \"k\": 4, \"size-mb\": 0.25, \"deadline-ms\": 200,"
                                " \"fault\": \"1ms down bordr:0\"}}"),
                           tmp / "farm", 1);
  EXPECT_EQ(r.cells, 1u);
  EXPECT_EQ(r.failed, 1u);
  ASSERT_EQ(r.outcomes.size(), 1u);
  EXPECT_EQ(r.outcomes[0].error, "exit 2");
  // The cache holds the cell's failure record and no result.
  for (const auto& entry : fs::directory_iterator(tmp / "farm/cache"))
    EXPECT_TRUE(entry.path().string().ends_with(".failed.json")) << entry.path();
  EXPECT_FALSE(fs::is_empty(tmp / "farm/cache"));
}

TEST_F(FarmIntegrationTest, EditedReplayFileReRunsTheCell) {
  TempDir tmp;
  const std::string trace = tmp / "flows.csv";
  write_file(trace, "0,17,65536,0\n");
  const std::string spec = "{\"name\": \"it\", \"base\": {\"scenario\": \"replay\","
                           " \"k\": 4, \"deadline-ms\": 200, \"file\": \"" +
                           trace + "\"}}";
  const FarmReport first = run(plan(spec.c_str()), tmp / "farm", 1);
  EXPECT_EQ(first.executed, 1u);
  ASSERT_TRUE(first.merged_written);
  EXPECT_NE(read_file(first.merged_path).find(",1/1,yes,"), std::string::npos);

  // The same name with new bytes: the cell runs again and replays 2 flows.
  write_file(trace, "0,17,65536,0\n1,2,65536,10\n");
  const FarmReport edited = run(plan(spec.c_str()), tmp / "farm", 1);
  EXPECT_EQ(edited.cache_hits, 0u);
  EXPECT_EQ(edited.executed, 1u);
  ASSERT_TRUE(edited.merged_written);
  EXPECT_NE(read_file(edited.merged_path).find(",2/2,yes,"), std::string::npos);
}

/// Run `uno_sim --one-cell` with `args` and parse the result it writes.
JsonValue run_one_cell(const TempDir& tmp, const std::string& args) {
  const std::string out = tmp / "cell.json";
  const std::string cmd = std::string(UNO_SIM_PATH) + " --one-cell " + out + " " + args +
                          " > " + (tmp / "cell.log") + " 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  JsonValue result;
  std::string err;
  EXPECT_TRUE(json_parse(read_file(out), &result, &err)) << err;
  return result;
}

/// The cells of merged.csv as {header: value}, one map per row.
std::vector<std::map<std::string, std::string>> merged_rows(const std::string& path) {
  const auto fields = [](const std::string& line) {
    std::vector<std::string> out;
    std::istringstream in(line + ",");  // a trailing empty field still counts
    for (std::string field; std::getline(in, field, ',');) out.push_back(field);
    return out;
  };
  std::istringstream merged(read_file(path));
  std::string line;
  std::getline(merged, line);
  const std::vector<std::string> header = fields(line);
  std::vector<std::map<std::string, std::string>> rows;
  while (std::getline(merged, line)) {
    const std::vector<std::string> row = fields(line);
    EXPECT_EQ(row.size(), header.size()) << line;
    rows.emplace_back();
    for (std::size_t i = 0; i < header.size() && i < row.size(); ++i)
      rows.back()[header[i]] = row[i];
  }
  return rows;
}

TEST(FarmOneCell, IterationsAreTheScenarioMetricsOfAClosedLoopCell) {
  TempDir tmp;
  // One run document: --one-cell and --metrics write the same bytes.
  const std::string metrics_path = tmp / "metrics.json";
  const JsonValue cell =
      run_one_cell(tmp, "--scenario allreduce --quick --metrics " + metrics_path);
  EXPECT_EQ(read_file(tmp / "cell.json"), read_file(metrics_path));
  const JsonValue* iterations = cell.get("scenario.allreduce.iterations");
  ASSERT_NE(iterations, nullptr);
  EXPECT_GT(iterations->number, 0);
  ASSERT_NE(cell.get("scenario.allreduce.mean_iter_us"), nullptr);
  ASSERT_NE(cell.get("done"), nullptr);
  EXPECT_EQ(cell.get("done")->number, 1);

  // An open-loop cell has no iterations: both keys (and columns) stay empty.
  const JsonValue open = run_one_cell(tmp, "--scenario incast --quick");
  EXPECT_NE(open.get("flows.completed"), nullptr);
  EXPECT_EQ(open.get("scenario.incast.iterations"), nullptr);
  EXPECT_EQ(open.get("scenario.incast.mean_iter_us"), nullptr);
}

TEST(FarmOneCell, InterOnlyCellHasEmptyIntraColumns) {
  TempDir tmp;
  // One incast sender is an inter-DC flow, so the intra class has no flows:
  // the worker writes none of its keys, and merged.csv leaves its columns
  // empty instead of reading a perfect 0.
  const JsonValue cell = run_one_cell(tmp, "--scenario incast --scenario-opt flows=1 --quick");
  for (const auto& [name, value] : cell.object)
    EXPECT_FALSE(name.starts_with("fct.intra.")) << name;
  EXPECT_NE(cell.get("fct.inter.mean_us"), nullptr);

  FarmSpec spec;
  std::string err;
  ASSERT_TRUE(FarmSpec::parse("{\"name\": \"it\", \"base\": {\"scenario\": \"incast\","
                              " \"flows\": 1, \"quick\": true}}",
                              make_sim_options(), &spec, &err))
      << err;
  FarmOptions opts;
  opts.jobs = 1;
  opts.retries = 0;
  FarmReport report;
  ASSERT_TRUE(run_farm(expand(spec), "itest-build", tmp / "farm", opts,
                       sim_command(UNO_SIM_PATH), &report, &err))
      << err;
  ASSERT_TRUE(report.merged_written);
  const auto rows = merged_rows(report.merged_path);
  ASSERT_EQ(rows.size(), 1u);
  for (const char* name : {"intra_mean_us", "intra_p99_us", "intra_p99_slowdown"})
    EXPECT_EQ(rows[0].at(name), "") << name;
  for (const char* name : {"inter_mean_us", "inter_p99_us", "inter_p99_slowdown"})
    EXPECT_NE(rows[0].at(name), "") << name;
  EXPECT_EQ(rows[0].at("status"), "ok");
}

TEST(FarmOneCell, NamedScenarioKeysRunAsOneScenarioOpt) {
  TempDir tmp;
  // The spec names incast's options directly; the cell's cached document is
  // byte-identical to the --metrics document of the same run with those
  // settings spelled as --scenario-opt.
  FarmSpec spec;
  std::string err;
  ASSERT_TRUE(FarmSpec::parse("{\"name\": \"it\", \"base\": {\"scenario\": \"incast\","
                              " \"k\": 4, \"flows\": 2, \"size-mb\": 0.25, \"receiver\": 5}}",
                              make_sim_options(), &spec, &err))
      << err;
  const FarmPlan plan = expand(spec);
  FarmOptions opts;
  opts.jobs = 1;
  opts.retries = 0;
  FarmReport report;
  ASSERT_TRUE(run_farm(plan, "itest-build", tmp / "farm", opts, sim_command(UNO_SIM_PATH),
                       &report, &err))
      << err;
  ASSERT_EQ(report.failed, 0u);
  const std::string metrics = tmp / "metrics.json";
  const std::string cmd = std::string(UNO_SIM_PATH) +
                          " --scenario incast --k 4 --seed 1"
                          " --scenario-opt flows=2,size-mb=0.25,receiver=5 --metrics " +
                          metrics + " > " + (tmp / "run.log");
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  EXPECT_EQ(read_file(tmp / ("farm/cache/" + farm_cell_key(plan.cells[0], "itest-build") +
                             ".json")),
            read_file(metrics));
}

TEST(FarmOneCell, EveryResultColumnIsReadUnlessItsClassIsEmpty) {
  TempDir tmp;
  // Between them these cells give every merged column a value: a two-class
  // open-loop cell, a closed-loop cell whose rings all cross the WAN, and an
  // inter-only cell. A column may be empty only where its class has no
  // flows or its scenario runs no iterations; a column whose key names
  // nothing in the run document would be empty in every row.
  struct Case {
    std::vector<std::pair<std::string, std::string>> config;
    std::set<std::string> empty;
  };
  const std::set<std::string> no_intra{"intra_mean_us", "intra_p99_us",
                                       "intra_p99_slowdown"};
  const std::set<std::string> no_iterations{"iterations", "mean_iter_us"};
  std::set<std::string> inter_only_open_loop = no_intra;
  inter_only_open_loop.insert(no_iterations.begin(), no_iterations.end());
  const std::vector<Case> cases = {
      {{{"quick", "true"}, {"scenario", "poisson"}}, no_iterations},
      {{{"quick", "true"}, {"scenario", "allreduce"}}, no_intra},
      {{{"flows", "1"}, {"quick", "true"}, {"scenario", "incast"}}, inter_only_open_loop},
  };
  FarmPlan plan;
  plan.name = "columns";
  plan.coord_keys = {"scenario"};
  for (const Case& c : cases) {
    FarmCell cell;
    cell.index = plan.cells.size();
    cell.config = c.config;
    cell.coords = {c.config.back()};
    cell.label = c.config.back().second;
    plan.cells.push_back(std::move(cell));
  }
  FarmOptions opts;
  opts.jobs = 3;
  opts.retries = 0;
  FarmReport report;
  std::string err;
  ASSERT_TRUE(run_farm(plan, "itest-build", tmp / "farm", opts, sim_command(UNO_SIM_PATH),
                       &report, &err))
      << err;
  ASSERT_TRUE(report.merged_written);
  const auto rows = merged_rows(report.merged_path);
  ASSERT_EQ(rows.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(plan.cells[i].label);
    EXPECT_EQ(rows[i].at("status"), "ok");
    EXPECT_EQ(rows[i].at("done"), "yes");
    for (const auto& [header, value] : rows[i]) {
      if (cases[i].empty.count(header) != 0)
        EXPECT_EQ(value, "") << header;
      else
        EXPECT_NE(value, "") << header;
    }
  }
}

#endif  // UNO_SIM_PATH

}  // namespace
}  // namespace uno
