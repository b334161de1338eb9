// Declarative CLI option-table tests (core/options.hpp): parsing of the
// accepted spellings, typed-value validation, defaults vs explicit values,
// unknown-flag rejection with nearest-match suggestions, and generated
// --help structure; plus uno_sim's value checks (core/sim_options.hpp),
// exercised on the real table without spawning a process.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/options.hpp"
#include "core/scheme.hpp"
#include "core/sim_options.hpp"

namespace uno {
namespace {

OptionSet make_set() {
  OptionSet opts("tool", "test tool");
  opts.begin_group("main");
  opts.add_str("scheme", "uno", "NAME", "scheme to run");
  opts.add_num("load", 0.4, "F", "offered load");
  opts.add_num("seed", 1, "N", "RNG seed");
  opts.add_flag("queues", "print queues");
  opts.begin_group("other");
  opts.add_str("trace", "", "FILE", "trace output");
  return opts;
}

/// parse() wants a mutable char** argv; build one from literals.
bool parse(OptionSet& opts, std::vector<std::string> args, std::string* err) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("tool"));
  for (std::string& a : args) argv.push_back(a.data());
  return opts.parse(static_cast<int>(argv.size()), argv.data(), err);
}

TEST(OptionSet, DefaultsWhenUnset) {
  OptionSet opts = make_set();
  std::string err;
  EXPECT_TRUE(parse(opts, {}, &err)) << err;
  EXPECT_EQ(opts.str("scheme"), "uno");
  EXPECT_DOUBLE_EQ(opts.num("load"), 0.4);
  EXPECT_FALSE(opts.flag("queues"));
  EXPECT_FALSE(opts.has("load"));
  EXPECT_EQ(opts.str("trace"), "");
}

TEST(OptionSet, AcceptedSpellings) {
  OptionSet opts = make_set();
  std::string err;
  EXPECT_TRUE(parse(opts, {"--scheme", "gemini", "--load=0.7", "--queues"}, &err)) << err;
  EXPECT_EQ(opts.str("scheme"), "gemini");
  EXPECT_DOUBLE_EQ(opts.num("load"), 0.7);
  EXPECT_TRUE(opts.flag("queues"));
  EXPECT_TRUE(opts.has("scheme"));
  EXPECT_TRUE(opts.has("load"));
}

TEST(OptionSet, NegativeNumberAsSeparateToken) {
  OptionSet opts = make_set();
  std::string err;
  EXPECT_TRUE(parse(opts, {"--load", "-0.5"}, &err)) << err;
  EXPECT_DOUBLE_EQ(opts.num("load"), -0.5);
}

TEST(OptionSet, RejectsUnknownWithSuggestion) {
  OptionSet opts = make_set();
  std::string err;
  EXPECT_FALSE(parse(opts, {"--shceme", "uno"}, &err));
  EXPECT_NE(err.find("--shceme"), std::string::npos);
  EXPECT_NE(err.find("--scheme"), std::string::npos);  // did you mean
}

TEST(OptionSet, RejectsUnknownWithoutFarFetchedSuggestion) {
  OptionSet opts = make_set();
  std::string err;
  EXPECT_FALSE(parse(opts, {"--zzzzzzzz"}, &err));
  EXPECT_EQ(err.find("did you mean"), std::string::npos);
}

TEST(OptionSet, RejectsPositional) {
  OptionSet opts = make_set();
  std::string err;
  EXPECT_FALSE(parse(opts, {"gemini"}, &err));
}

TEST(OptionSet, RejectsMissingValue) {
  OptionSet opts = make_set();
  std::string err;
  EXPECT_FALSE(parse(opts, {"--scheme"}, &err));
  EXPECT_NE(err.find("scheme"), std::string::npos);
}

TEST(OptionSet, RejectsBadNumber) {
  OptionSet opts = make_set();
  std::string err;
  EXPECT_FALSE(parse(opts, {"--load", "fast"}, &err));
  // Not a finite number: strtod reads these, and a later cast of one to an
  // integer (or a Poisson clock fed one) is undefined or never advances.
  for (const char* v : {"nan", "NaN", "inf", "-inf", "infinity", "1e400"}) {
    SCOPED_TRACE(v);
    OptionSet fresh = make_set();
    err.clear();
    EXPECT_FALSE(parse(fresh, {"--load", v}, &err));
    EXPECT_NE(err.find("bad value"), std::string::npos) << err;
    err.clear();
    EXPECT_FALSE(fresh.check_value("load", v, &err));  // scenario/farm option check
    EXPECT_NE(err.find("bad value"), std::string::npos) << err;
  }
}

TEST(OptionSet, RejectsValueOnFlag) {
  OptionSet opts = make_set();
  std::string err;
  EXPECT_FALSE(parse(opts, {"--queues=yes"}, &err));
}

TEST(OptionSet, EditDistance) {
  EXPECT_EQ(OptionSet::edit_distance("", ""), 0u);
  EXPECT_EQ(OptionSet::edit_distance("abc", "abc"), 0u);
  EXPECT_EQ(OptionSet::edit_distance("abc", ""), 3u);
  EXPECT_EQ(OptionSet::edit_distance("shceme", "scheme"), 2u);  // transposition
  EXPECT_EQ(OptionSet::edit_distance("load", "lead"), 1u);
  EXPECT_EQ(OptionSet::edit_distance("kitten", "sitting"), 3u);
}

TEST(OptionSet, SuggestPicksNearest) {
  OptionSet opts = make_set();
  EXPECT_EQ(opts.suggest("shceme"), "scheme");
  EXPECT_EQ(opts.suggest("lod"), "load");
  EXPECT_EQ(opts.suggest("entirely-different"), "");
}

TEST(OptionSet, HelpTextStructure) {
  OptionSet opts = make_set();
  const std::string help = opts.help_text();
  // Header, group titles in insertion order, every option, defaults.
  EXPECT_NE(help.find("tool"), std::string::npos);
  EXPECT_NE(help.find("test tool"), std::string::npos);
  const std::size_t main_at = help.find("main");
  const std::size_t other_at = help.find("other");
  ASSERT_NE(main_at, std::string::npos);
  ASSERT_NE(other_at, std::string::npos);
  EXPECT_LT(main_at, other_at);
  EXPECT_NE(help.find("--scheme"), std::string::npos);
  EXPECT_NE(help.find("--load"), std::string::npos);
  EXPECT_NE(help.find("--queues"), std::string::npos);
  EXPECT_NE(help.find("0.4"), std::string::npos);  // numeric default shown
}

// --- uno_sim value checks ------------------------------------------------------

/// Parse `args` against the uno_sim table and validate: "" when accepted,
/// else the rejection message.
std::string sim_options_error(std::vector<std::string> args) {
  OptionSet opts = make_sim_options();
  std::string err;
  EXPECT_TRUE(parse(opts, std::move(args), &err)) << err;
  return validate_sim_options(opts, &err) ? "" : err;
}

TEST(SimOptions, AcceptsAConsistentConfiguration) {
  EXPECT_EQ(sim_options_error({}), "");
  EXPECT_EQ(sim_options_error({"--k", "4", "--dcs", "3", "--cross-links", "1",
                               "--ec-data", "60", "--ec-parity", "4",
                               "--fault-sample-us", "0.5", "--shards", "0"}),
            "");
}

TEST(SimOptions, RejectsValuesTheLibraryOnlyAssertsOn) {
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"--shards", "-1"}, "--shards"},
      {{"--k", "3"}, "--k must be an even"},
      {{"--k", "0"}, "--k must be an even"},
      {{"--dcs", "1"}, "--dcs must be >= 2"},
      {{"--cross-links", "0"}, "--cross-links must be >= 1"},
      {{"--cross-links", "-1"}, "--cross-links must be >= 1"},
      {{"--ec-data", "0"}, "--ec-data must be >= 1"},
      {{"--ec-parity", "-1"}, "--ec-parity must be >= 0"},
      {{"--ec-data", "64"}, "must be <= 64"},  // 66 shards per block
      {{"--fault-sample-us", "0"}, "--fault-sample-us must be > 0"},
      {{"--fault-sample-us", "-5"}, "--fault-sample-us must be > 0"},
      {{"--cross-rtt", "0-2=8"}, "need two distinct DCs"},
      // Values a later cast cannot hold, or that run a degenerate workload.
      {{"--deadline-ms", "-5"}, "--deadline-ms must be > 0"},
      {{"--deadline-ms", "0"}, "--deadline-ms must be > 0"},
      {{"--deadline-ms", "1e10"}, "--deadline-ms must be > 0"},  // past 2^63 ps
      {{"--seed", "-1"}, "--seed must be an integer"},
      {{"--seed", "1e30"}, "--seed must be an integer"},
      {{"--seed", "1.5"}, "--seed must be an integer"},
      {{"--k", "1e30"}, "--k must fit an int"},
      {{"--dcs", "-1e30"}, "--dcs must fit an int"},
      {{"--cross-links", "3e9"}, "--cross-links must fit an int"},
      {{"--shards", "1e30"}, "--shards must fit an int"},
      {{"--ec-data", "1e30"}, "--ec-data must fit an int"},
      {{"--ec-parity", "-1e30"}, "--ec-parity must fit an int"},
      {{"--fault-sample-us", "1e-9"}, "--fault-sample-us must be > 0"},  // 0 ps
      {{"--fault-sample-us", "1e30"}, "--fault-sample-us must be > 0"},
      {{"--rtt-ratio", "1e12"}, "--rtt-ratio must be <= "},  // a 1.4e19 ps RTT
      {{"--rtt-ratio", "1"}, "--rtt-ratio must give an inter-DC RTT above"},  // 14 us
      {{"--trace-ring", "-5"}, "--trace-ring must be in [0, 2^32]"},
      {{"--trace-ring", "1e30"}, "--trace-ring must be in [0, 2^32]"},
      {{"--trace-depth-us", "1e30"}, "--trace-depth-us must be >= 0"},
      {{"--trace-depth-us", "-1"}, "--trace-depth-us must be >= 0"},
  };
  for (const auto& [args, needle] : cases) {
    SCOPED_TRACE(args[0] + " " + args[1]);
    const std::string err = sim_options_error(args);
    EXPECT_NE(err.find(needle), std::string::npos) << err;
  }
  // The largest seed every double holds exactly is still a valid seed.
  EXPECT_EQ(sim_options_error({"--seed", "9007199254740992"}), "");
  // Ratios up to the clock's bound, and the ring and depth extremes, pass.
  EXPECT_EQ(sim_options_error({"--rtt-ratio", "8e10"}), "");
  EXPECT_EQ(sim_options_error({"--rtt-ratio", "1.6"}), "");
  EXPECT_EQ(sim_options_error({"--rtt-ratio", "0"}), "");  // keeps the 2 ms default
  EXPECT_EQ(sim_options_error({"--trace-ring", "0", "--trace-depth-us", "0"}), "");
  EXPECT_EQ(sim_options_error({"--trace-ring", "4294967296"}), "");
}

TEST(SimOptions, SchemeMustBeCatalogued) {
  for (const std::string& name : scheme_names())
    EXPECT_EQ(sim_options_error({"--scheme", name}), "") << name;
  // A typo names the nearest catalogue entry, as --scenario does.
  EXPECT_EQ(sim_options_error({"--scheme", "spary+ec"}),
            "unknown scheme: spary+ec (did you mean spray+ec?); see --help for the "
            "catalogue");
  EXPECT_EQ(sim_options_error({"--scheme", "gemnii"}),
            "unknown scheme: gemnii (did you mean gemini?); see --help for the catalogue");
  // Nothing close: no suggestion.
  EXPECT_EQ(sim_options_error({"--scheme", "tcp-vegas"}),
            "unknown scheme: tcp-vegas; see --help for the catalogue");
  // --help lists every entry.
  const std::string help = make_sim_options().help_text();
  for (const std::string& name : scheme_names())
    EXPECT_NE(help.find(name), std::string::npos) << name;
}

}  // namespace
}  // namespace uno
