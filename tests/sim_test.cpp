// Unit tests for the discrete-event core: time arithmetic, event ordering,
// timers, and RNG stream independence.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "sim/event.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace uno {
namespace {

TEST(Time, UnitsCompose) {
  EXPECT_EQ(kNanosecond, 1000);
  EXPECT_EQ(kMicrosecond, 1'000'000);
  EXPECT_EQ(kMillisecond, 1'000'000'000);
  EXPECT_EQ(kSecond, 1'000'000'000'000LL);
}

TEST(Time, SerializationTimeExactAt100G) {
  // 4096 B at 100 Gbps = 4096*8/100e9 s = 327.68 ns.
  EXPECT_EQ(serialization_time(4096, 100 * kGbps), 327'680);
  EXPECT_EQ(serialization_time(0, 100 * kGbps), 0);
  // Rounds up: 1 byte at 1 Tbps = 8 ps exactly.
  EXPECT_EQ(serialization_time(1, 1000 * kGbps), 8);
}

TEST(Time, SerializationHandlesHugeMessages) {
  // 1 GiB at 100 Gbps ~ 85.9 ms; must not overflow.
  const Time t = serialization_time(1LL << 30, 100 * kGbps);
  EXPECT_NEAR(to_milliseconds(t), 85.899, 0.01);
}

TEST(Time, BytesInInterval) {
  EXPECT_EQ(bytes_in_interval(kSecond, 8), 1);
  EXPECT_EQ(bytes_in_interval(kMicrosecond, 100 * kGbps), 12'500);
  EXPECT_EQ(bdp_bytes(14 * kMicrosecond, 100 * kGbps), 175'000);
  EXPECT_EQ(bdp_bytes(2 * kMillisecond, 100 * kGbps), 25'000'000);
}

class Recorder : public EventHandler {
 public:
  explicit Recorder(EventQueue& eq) : eq_(eq) {}
  void on_event(std::uint64_t tag) override {
    fired.push_back({eq_.now(), tag});
  }
  std::vector<std::pair<Time, std::uint64_t>> fired;

 private:
  EventQueue& eq_;
};

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue eq;
  Recorder r(eq);
  eq.schedule_at(300, &r, 3);
  eq.schedule_at(100, &r, 1);
  eq.schedule_at(200, &r, 2);
  eq.run_all();
  ASSERT_EQ(r.fired.size(), 3u);
  EXPECT_EQ(r.fired[0], (std::pair<Time, std::uint64_t>{100, 1}));
  EXPECT_EQ(r.fired[1], (std::pair<Time, std::uint64_t>{200, 2}));
  EXPECT_EQ(r.fired[2], (std::pair<Time, std::uint64_t>{300, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue eq;
  Recorder r(eq);
  for (std::uint32_t i = 0; i < 10; ++i) eq.schedule_at(50, &r, i);
  eq.run_all();
  ASSERT_EQ(r.fired.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(r.fired[i].second, i);
}

TEST(EventQueue, ReservedSeqsDispatchWhereTheReservationWas) {
  // Tags 0-1 are scheduled before the reservation, 2-4 take its numbers
  // later (after 5-6 were scheduled), all at one time: dispatch follows the
  // reservation, as if 2-4 had been scheduled when it was made.
  EventQueue eq;
  Recorder r(eq);
  eq.schedule_at(50, &r, 0);
  eq.schedule_at(50, &r, 1);
  const std::uint64_t base = eq.reserve_seqs(3);
  eq.schedule_at(50, &r, 5);
  eq.run_until(20);
  eq.schedule_at(50, &r, 6);
  for (std::uint64_t i = 0; i < 3; ++i) eq.schedule_keyed(50, &r, 2 + i, base + i);
  eq.run_all();
  ASSERT_EQ(r.fired.size(), 7u);
  const std::vector<std::uint64_t> want = {0, 1, 2, 3, 4, 5, 6};
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(r.fired[i].second, want[i]);
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue eq;
  Recorder r(eq);
  eq.schedule_at(100, &r, 1);
  eq.schedule_at(200, &r, 2);
  EXPECT_EQ(eq.run_until(150), 1u);
  EXPECT_EQ(eq.now(), 150);
  EXPECT_EQ(eq.pending(), 1u);
  EXPECT_EQ(eq.run_until(250), 1u);
  EXPECT_EQ(r.fired.size(), 2u);
}

TEST(EventQueue, HandlerCanScheduleMore) {
  EventQueue eq;
  struct Chain : EventHandler {
    EventQueue& eq;
    int count = 0;
    explicit Chain(EventQueue& e) : eq(e) {}
    void on_event(std::uint64_t) override {
      if (++count < 5) eq.schedule_in(10, this);
    }
  } chain(eq);
  eq.schedule_at(0, &chain);
  eq.run_all();
  EXPECT_EQ(chain.count, 5);
  EXPECT_EQ(eq.now(), 40);
}

TEST(Timer, FiresOnceAtDeadline) {
  EventQueue eq;
  Recorder r(eq);
  Timer t(eq, &r, 7);
  t.arm_at(500);
  EXPECT_TRUE(t.armed());
  eq.run_all();
  ASSERT_EQ(r.fired.size(), 1u);
  EXPECT_EQ(r.fired[0], (std::pair<Time, std::uint64_t>{500, 7}));
  EXPECT_FALSE(t.armed());
}

TEST(Timer, CancelSuppressesFiring) {
  EventQueue eq;
  Recorder r(eq);
  Timer t(eq, &r, 7);
  t.arm_at(500);
  t.cancel();
  eq.run_all();
  EXPECT_TRUE(r.fired.empty());
}

TEST(Timer, RearmSupersedesOldDeadline) {
  EventQueue eq;
  Recorder r(eq);
  Timer t(eq, &r, 7);
  t.arm_at(500);
  t.arm_at(800);  // supersedes
  eq.run_all();
  ASSERT_EQ(r.fired.size(), 1u);
  EXPECT_EQ(r.fired[0].first, 800);
}

TEST(Timer, RearmAfterFire) {
  EventQueue eq;
  Recorder r(eq);
  Timer t(eq, &r, 1);
  t.arm_at(10);
  eq.run_until(20);
  t.arm_at(30);
  eq.run_all();
  EXPECT_EQ(r.fired.size(), 2u);
}

TEST(EventQueue, StaleEventsForDeadHandlersAreSkipped) {
  EventQueue eq;
  auto r1 = std::make_unique<Recorder>(eq);
  Recorder r2(eq);
  eq.schedule_at(100, r1.get(), 1);
  eq.schedule_at(200, &r2, 2);
  r1.reset();  // destroy with an event still queued
  eq.run_all();
  EXPECT_EQ(r2.fired.size(), 1u);  // r2 unaffected, r1's wakeup skipped
  EXPECT_EQ(eq.now(), 200);
}

TEST(Rng, StreamsAreIndependent) {
  Rng a = Rng::stream(1, 0);
  Rng b = Rng::stream(1, 1);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.uniform_below(1000) == b.uniform_below(1000)) ++same;
  EXPECT_LT(same, 10);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a = Rng::stream(42, 7);
  Rng b = Rng::stream(42, 7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.uniform_below(1 << 30), b.uniform_below(1 << 30));
}

TEST(Rng, UniformBounds) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(r.uniform_below(17), 17u);
  }
}

/// `draw_a` and `draw_b` produce the same sequence, value for value.
template <typename A, typename B>
void expect_same_draws(A draw_a, B draw_b, int n = 200) {
  for (int i = 0; i < n; ++i) ASSERT_EQ(draw_a(), draw_b()) << "draw " << i;
}

TEST(Rng, LazyEngineMatchesEagerlySeededMt19937) {
  // The engine is built on the first draw; every draw kind must see exactly
  // the std::mt19937_64(seed) stream through the same distribution.
  constexpr std::uint64_t kSeed = 0x5EEDF00DULL;
  {
    Rng r(kSeed);
    std::mt19937_64 ref(kSeed);
    std::uniform_int_distribution<std::uint64_t> d(0, 999);
    expect_same_draws([&] { return r.uniform_below(1000); }, [&] { return d(ref); });
  }
  {
    Rng r(kSeed);
    std::mt19937_64 ref(kSeed);
    std::uniform_int_distribution<std::int64_t> d(-7, 7);
    expect_same_draws([&] { return r.uniform_int(-7, 7); }, [&] { return d(ref); });
  }
  {
    Rng r(kSeed);
    std::mt19937_64 ref(kSeed);
    std::uniform_real_distribution<double> d(0.0, 1.0);
    expect_same_draws([&] { return r.uniform(); }, [&] { return d(ref); });
  }
  {
    Rng r(kSeed);
    std::mt19937_64 ref(kSeed);
    std::exponential_distribution<double> d(1.0 / 250.0);
    expect_same_draws([&] { return r.exponential(250.0); }, [&] { return d(ref); });
  }
  {
    Rng r(kSeed);
    std::mt19937_64 ref(kSeed);
    std::uniform_real_distribution<double> d(0.0, 1.0);
    expect_same_draws([&] { return r.chance(0.3); }, [&] { return d(ref) < 0.3; });
  }
}

TEST(Rng, CopiesAndMovesContinueTheStream) {
  std::vector<std::uint64_t> ref;
  Rng r(77);
  for (int i = 0; i < 20; ++i) ref.push_back(r.uniform_below(1u << 30));

  Rng a(77);
  Rng b(77);
  Rng copy_before = a;              // no engine yet: copies the seed
  Rng moved_before = std::move(b);
  for (int i = 0; i < 10; ++i) ASSERT_EQ(a.uniform_below(1u << 30), ref[i]);
  Rng copy_after = a;               // copies the engine state mid-stream
  Rng assigned(1);
  assigned = a;
  Rng moved_after = std::move(a);
  for (int i = 10; i < 20; ++i) {
    EXPECT_EQ(copy_after.uniform_below(1u << 30), ref[i]);
    EXPECT_EQ(assigned.uniform_below(1u << 30), ref[i]);
    EXPECT_EQ(moved_after.uniform_below(1u << 30), ref[i]);
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(copy_before.uniform_below(1u << 30), ref[i]);
    EXPECT_EQ(moved_before.uniform_below(1u << 30), ref[i]);
  }
}

TEST(Rng, UndrawnStreamIsSmall) {
  // Seed plus engine pointer: what every flow's load balancer and every
  // switch queue carries until it first needs a random number.
  EXPECT_LE(sizeof(Rng), 16u);
}

TEST(Rng, ExponentialMean) {
  Rng r(9);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(250.0);
  EXPECT_NEAR(sum / n, 250.0, 10.0);
}

}  // namespace
}  // namespace uno
