/**
 * @file
 * Unit tests for tq_common: RNG, distributions, percentiles, histograms,
 * unit conversions, the cycle clock, and the per-core scheduler
 * (sched::CoreQueue) at both of its tick types.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <thread>
#include <tuple>
#include <vector>

#include "common/arrival.h"
#include "common/core_queue.h"
#include "common/cycles.h"
#include "common/dist.h"
#include "common/histogram.h"
#include "common/percentile.h"
#include "common/rng.h"
#include "common/shard.h"
#include "common/units.h"
#include "common/zipf.h"

namespace tq {
namespace {

TEST(Units, Conversions)
{
    EXPECT_DOUBLE_EQ(us(2.0), 2000.0);
    EXPECT_DOUBLE_EQ(ms(1.0), 1e6);
    EXPECT_DOUBLE_EQ(sec(1.0), 1e9);
    EXPECT_DOUBLE_EQ(to_us(us(3.5)), 3.5);
    EXPECT_DOUBLE_EQ(to_sec(sec(2.0)), 2.0);
    // 1 Mrps = 1e-3 requests per nanosecond.
    EXPECT_DOUBLE_EQ(mrps(1.0), 1e-3);
    EXPECT_DOUBLE_EQ(to_mrps(mrps(4.5)), 4.5);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42), c(43);
    bool diverged = false;
    for (int i = 0; i < 100; ++i) {
        const uint64_t va = a();
        EXPECT_EQ(va, b());
        diverged |= (va != c());
    }
    EXPECT_TRUE(diverged);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(1);
    double sum = 0;
    for (int i = 0; i < 100000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 100000, 0.5, 0.01);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[rng.below(10)];
    for (int c : counts)
        EXPECT_NEAR(c, 10000, 600); // ~6 sigma
}

TEST(Rng, ExponentialMean)
{
    Rng rng(3);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.exponential(5.0);
        ASSERT_GE(x, 0.0);
        sum += x;
    }
    EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.bernoulli(0.25);
    EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

TEST(FixedDist, AlwaysSameValue)
{
    FixedDist d(us(3), "spin");
    Rng rng(1);
    for (int i = 0; i < 10; ++i) {
        const auto s = d.sample(rng);
        EXPECT_DOUBLE_EQ(s.demand, us(3));
        EXPECT_EQ(s.job_class, 0);
    }
    EXPECT_DOUBLE_EQ(d.mean(), us(3));
    EXPECT_EQ(d.class_names().size(), 1u);
}

TEST(ExponentialDist, MeanMatches)
{
    ExponentialDist d(us(1));
    Rng rng(2);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += d.sample(rng).demand;
    EXPECT_NEAR(sum / n, us(1), us(0.02));
    EXPECT_DOUBLE_EQ(d.mean(), us(1));
}

TEST(MixtureDist, ClassFrequenciesMatchWeights)
{
    auto d = workload_table::extreme_bimodal();
    Rng rng(5);
    int longs = 0;
    const int n = 400000;
    for (int i = 0; i < n; ++i) {
        const auto s = d->sample(rng);
        if (s.job_class == 1) {
            EXPECT_DOUBLE_EQ(s.demand, us(500));
            ++longs;
        } else {
            EXPECT_DOUBLE_EQ(s.demand, us(0.5));
        }
    }
    EXPECT_NEAR(longs / static_cast<double>(n), 0.005, 0.0012);
}

TEST(MixtureDist, MeanIsWeightedAverage)
{
    auto d = workload_table::high_bimodal();
    EXPECT_NEAR(d->mean(), 0.5 * us(1) + 0.5 * us(100), 1e-9);
}

TEST(MixtureDist, TpccHasFiveClasses)
{
    auto d = workload_table::tpcc();
    EXPECT_EQ(d->class_names().size(), 5u);
    EXPECT_EQ(d->class_names()[0], "Payment");
    EXPECT_EQ(d->class_names()[4], "StockLevel");
    // Mean of Table 1: .44*5.7 + .04*6 + .44*20 + .04*88 + .04*100
    EXPECT_NEAR(to_us(d->mean()), 19.068, 1e-6);
}

TEST(MixtureDist, RocksdbScanFraction)
{
    auto d = workload_table::rocksdb(0.5);
    Rng rng(6);
    int scans = 0;
    for (int i = 0; i < 100000; ++i)
        scans += d->sample(rng).job_class == 1;
    EXPECT_NEAR(scans / 100000.0, 0.5, 0.01);
}

TEST(PercentileTracker, ExactQuantilesOfKnownData)
{
    PercentileTracker t;
    for (int i = 1; i <= 1000; ++i)
        t.add(i);
    EXPECT_EQ(t.count(), 1000u);
    EXPECT_DOUBLE_EQ(t.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(t.quantile(0.5), 501.0);
    EXPECT_DOUBLE_EQ(t.quantile(0.999), 1000.0);
    EXPECT_DOUBLE_EQ(t.quantile(1.0), 1000.0);
}

TEST(PercentileTracker, WarmupDiscardsPrefix)
{
    PercentileTracker t;
    // First 10% are huge outliers that warm-up should remove.
    for (int i = 0; i < 100; ++i)
        t.add(1e9);
    for (int i = 0; i < 900; ++i)
        t.add(1.0);
    EXPECT_DOUBLE_EQ(t.quantile(0.99, 0.1), 1.0);
    EXPECT_DOUBLE_EQ(t.mean(0.1), 1.0);
    EXPECT_DOUBLE_EQ(t.max(0.1), 1.0);
}

TEST(PercentileTracker, EmptyReturnsZero)
{
    PercentileTracker t;
    EXPECT_TRUE(t.empty());
    EXPECT_DOUBLE_EQ(t.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(t.mean(), 0.0);
}

TEST(PercentileTracker, BatchQuantilesMatchSingleCalls)
{
    Rng rng(11);
    PercentileTracker t;
    t.reserve(4000);
    for (int i = 0; i < 4000; ++i)
        t.add(rng.exponential(3.0));
    const double qs[] = {0.0, 0.5, 0.99, 0.999, 1.0};
    const auto batch = t.quantiles(qs);
    const auto warm = t.quantiles(qs, 0.1);
    ASSERT_EQ(batch.size(), std::size(qs));
    for (size_t i = 0; i < std::size(qs); ++i) {
        EXPECT_DOUBLE_EQ(batch[i], t.quantile(qs[i]));
        EXPECT_DOUBLE_EQ(warm[i], t.quantile(qs[i], 0.1));
    }
    EXPECT_EQ(PercentileTracker().quantiles(qs),
              std::vector<double>(std::size(qs), 0.0));
}

TEST(PercentileTracker, MatchesSortOracleOnRandomData)
{
    Rng rng(9);
    PercentileTracker t;
    std::vector<double> oracle;
    for (int i = 0; i < 5000; ++i) {
        const double v = rng.uniform(0, 1000);
        t.add(v);
        oracle.push_back(v);
    }
    std::sort(oracle.begin(), oracle.end());
    for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
        size_t rank = static_cast<size_t>(q * oracle.size());
        if (rank >= oracle.size())
            rank = oracle.size() - 1;
        EXPECT_DOUBLE_EQ(t.quantile(q), oracle[rank]) << "q=" << q;
    }
}

TEST(LogHistogram, BucketEdges)
{
    LogHistogram h(64, 8); // 64..16384 in 8 buckets
    EXPECT_EQ(h.bucket_lo(0), 64u);
    EXPECT_EQ(h.bucket_hi(0), 128u);
    EXPECT_EQ(h.bucket_lo(7), 8192u);
    EXPECT_EQ(h.bucket_hi(7), 16384u);
}

TEST(LogHistogram, CountsLandInRightBuckets)
{
    LogHistogram h(64, 8);
    h.add(10);      // underflow
    h.add(64);      // bucket 0
    h.add(127);     // bucket 0
    h.add(128);     // bucket 1
    h.add(16383);   // bucket 7
    h.add(16384);   // overflow
    EXPECT_EQ(h.total(), 6u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.bucket_count(0), 2u);
    EXPECT_EQ(h.bucket_count(1), 1u);
    EXPECT_EQ(h.bucket_count(7), 1u);
    EXPECT_EQ(h.overflow(), 1u);
}

TEST(LogHistogram, FractionAbove)
{
    LogHistogram h(1, 20);
    for (int i = 0; i < 90; ++i)
        h.add(100); // bucket [64,128)
    for (int i = 0; i < 10; ++i)
        h.add(100000);
    EXPECT_NEAR(h.fraction_above(8192), 0.10, 1e-9);
    EXPECT_NEAR(h.fraction_above(64), 1.0, 1e-9); // bucket straddles
}

TEST(OnOffProcess, DeterministicForSameSeed)
{
    OnOffConfig cfg; // defaults: exponential phases (2-state MMPP)
    OnOffProcess a(1e-3, cfg), b(1e-3, cfg);
    Rng ra(7), rb(7);
    double ta = 0, tb = 0;
    for (int i = 0; i < 5000; ++i) {
        ta = a.next(ta, ra);
        tb = b.next(tb, rb);
        ASSERT_DOUBLE_EQ(ta, tb);
        ASSERT_GT(ta, 0.0);
    }
    EXPECT_EQ(a.phases_begun(), b.phases_begun());
    EXPECT_GT(a.phases_begun(), 0u);
}

// Regression (zero-rate phases): a fully silent OFF phase used to be a
// division hazard for gap-based samplers (gap = exp / rate with
// rate = 0). The inversion sampler steps over zero-capacity phases
// without dividing: every draw must come back finite, strictly
// increasing, and inside an ON window.
TEST(OnOffProcess, ZeroRateOffPhasesAreSkippedWithoutDivision)
{
    OnOffConfig cfg;
    cfg.on_mult = 1.0;
    cfg.off_mult = 0.0; // fully silent
    cfg.on_ns = 100.0;
    cfg.off_ns = 900.0;
    cfg.exponential_phases = false; // deterministic windows
    OnOffProcess p(1.0, cfg);       // ~100 arrivals per ON window
    Rng rng(3);
    double t = 0;
    for (int i = 0; i < 20000; ++i) {
        const double prev = t;
        t = p.next(t, rng);
        ASSERT_TRUE(std::isfinite(t));
        ASSERT_GT(t, prev);
        // ON windows are [1000k, 1000k + 100).
        const double in_cycle = std::fmod(t, 1000.0);
        ASSERT_LT(in_cycle, 100.0) << "arrival in a silent phase at " << t;
    }
}

// Near-zero (subnormal-adjacent) OFF rates must neither spin for an
// unbounded number of phases nor emit bursts inside the OFF windows.
TEST(OnOffProcess, NearZeroOffRateStaysFiniteAndOrdered)
{
    OnOffConfig cfg;
    cfg.on_mult = 2.0;
    cfg.off_mult = 1e-300;
    cfg.on_ns = 50e3;
    cfg.off_ns = 50e3;
    OnOffProcess p(1e-3, cfg);
    Rng rng(11);
    double t = 0;
    for (int i = 0; i < 5000; ++i) {
        const double prev = t;
        t = p.next(t, rng);
        ASSERT_TRUE(std::isfinite(t));
        ASSERT_GT(t, prev);
    }
}

// Full-amplitude diurnal ramp: the trough multiplier touches zero
// (phase rate 0) — the sampler must step over trough phases exactly
// like silent OFF phases.
TEST(OnOffProcess, FullAmplitudeRampTroughDoesNotStall)
{
    OnOffConfig cfg;
    cfg.on_mult = 1.0;
    cfg.off_mult = 1.0; // pure diurnal modulation
    cfg.on_ns = 1e3;
    cfg.off_ns = 1e3;
    cfg.exponential_phases = false;
    cfg.ramp_period_ns = 100e3;
    cfg.ramp_amplitude = 1.0;
    OnOffProcess p(1e-2, cfg);
    Rng rng(5);
    double t = 0;
    for (int i = 0; i < 10000; ++i) {
        const double prev = t;
        t = p.next(t, rng);
        ASSERT_TRUE(std::isfinite(t));
        ASSERT_GT(t, prev);
    }
}

TEST(OnOffProcess, LongRunRateMatchesDutyCycleMean)
{
    OnOffConfig cfg;
    cfg.on_mult = 3.0;
    cfg.off_mult = 0.5;
    cfg.on_ns = 20e3;
    cfg.off_ns = 60e3;
    OnOffProcess p(1e-3, cfg);
    // mean = 1e-3 * (3 * 20 + 0.5 * 60) / 80 = 1.125e-3
    EXPECT_NEAR(p.mean_rate(), 1.125e-3, 1e-12);
    Rng rng(17);
    double t = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        t = p.next(t, rng);
    const double empirical = n / t;
    EXPECT_NEAR(empirical, p.mean_rate(), 0.05 * p.mean_rate());
}

TEST(ArrivalSpec, FactoryBuildsTheRequestedProcess)
{
    ArrivalSpec spec; // default Poisson
    const auto poisson = make_arrival_process(spec, 2e-3);
    EXPECT_DOUBLE_EQ(poisson->mean_rate(), 2e-3);
    EXPECT_EQ(poisson->phases_begun(), 0u);
    // Poisson draws are value-for-value the historical inline code:
    // one exponential at the mean gap (500ns at 2e-3/ns).
    Rng a(9), b(9);
    double t = 0, u = 0;
    for (int i = 0; i < 100; ++i) {
        t = poisson->next(t, a);
        u += b.exponential(500.0);
        ASSERT_DOUBLE_EQ(t, u);
    }
    spec.kind = ArrivalSpec::Kind::OnOff;
    const auto onoff = make_arrival_process(spec, 2e-3);
    Rng c(1);
    onoff->next(0.0, c);
    EXPECT_GT(onoff->phases_begun(), 0u);
}

TEST(Zipf, FrequenciesMatchPmf)
{
    const uint64_t n = 16;
    Zipf z(n, 1.2);
    Rng rng(23);
    std::vector<uint64_t> counts(n, 0);
    const int samples = 200000;
    for (int i = 0; i < samples; ++i) {
        const uint64_t r = z.sample(rng);
        ASSERT_LT(r, n);
        ++counts[r];
    }
    double pmf_sum = 0;
    for (uint64_t r = 0; r < n; ++r) {
        const double expected = z.pmf(r);
        pmf_sum += expected;
        const double observed =
            static_cast<double>(counts[r]) / samples;
        EXPECT_NEAR(observed, expected, 0.05 * expected + 0.002)
            << "rank " << r;
    }
    EXPECT_NEAR(pmf_sum, 1.0, 1e-9);
    // Monotone popularity: rank 0 is the hottest.
    for (uint64_t r = 1; r < n; ++r)
        EXPECT_GE(counts[r - 1], counts[r] / 2);
}

// Regression (s -> 1 precision): the naive h-integral
// (x^(1-s) - 1) / (1 - s) is 0/0 at s = 1. The rejection-inversion
// helpers switch to expm1/log1p forms, so the distribution must vary
// continuously through s = 1 instead of collapsing or NaN-ing.
TEST(Zipf, ContinuousThroughSEqualsOne)
{
    const uint64_t n = 1024;
    const double eps = 1e-12; // well inside double rounding of 1 - s
    Zipf below(n, 1.0 - eps), at(n, 1.0), above(n, 1.0 + eps);
    for (uint64_t r : {uint64_t{0}, uint64_t{1}, uint64_t{7},
                       uint64_t{511}, n - 1}) {
        const double p = at.pmf(r);
        ASSERT_TRUE(std::isfinite(p));
        ASSERT_GT(p, 0.0);
        EXPECT_NEAR(below.pmf(r), p, 1e-6 * p);
        EXPECT_NEAR(above.pmf(r), p, 1e-6 * p);
    }
    // Sampling at exactly s = 1 stays in range and hits the head hard.
    Rng rng(31);
    uint64_t head = 0;
    const int samples = 20000;
    for (int i = 0; i < samples; ++i) {
        const uint64_t r = at.sample(rng);
        ASSERT_LT(r, n);
        head += r == 0;
    }
    // pmf(0) at s=1, n=1024 is 1/H_1024 ~ 0.133.
    EXPECT_NEAR(static_cast<double>(head) / samples, at.pmf(0),
                0.25 * at.pmf(0));
}

TEST(Zipf, DegenerateCases)
{
    Zipf one(1, 0.99);
    EXPECT_DOUBLE_EQ(one.pmf(0), 1.0);
    Rng rng(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(one.sample(rng), 0u);
    // s = 0 is the uniform distribution.
    Zipf uniform(64, 0.0);
    for (uint64_t r = 0; r < 64; ++r)
        EXPECT_NEAR(uniform.pmf(r), 1.0 / 64, 1e-12);
}

TEST(ShardSpan, PartitionIsContiguousDisjointAndEven)
{
    // Every (workers, shards) pair up to the runtime's limits: the
    // spans must tile [0, W) exactly, differ by at most one worker, and
    // shard_of_worker must invert the mapping.
    for (int workers = 1; workers <= 64; ++workers) {
        for (int shards = 1; shards <= std::min(workers, 16); ++shards) {
            int next = 0;
            int min_count = workers, max_count = 0;
            for (int s = 0; s < shards; ++s) {
                const ShardSpan span = shard_span(workers, shards, s);
                ASSERT_EQ(span.first, next)
                    << workers << "w/" << shards << "s shard " << s;
                ASSERT_GE(span.count, 1);
                min_count = std::min(min_count, span.count);
                max_count = std::max(max_count, span.count);
                for (int w = span.first; w < span.first + span.count; ++w)
                    ASSERT_EQ(shard_of_worker(workers, shards, w), s)
                        << workers << "w/" << shards << "s worker " << w;
                next = span.first + span.count;
            }
            ASSERT_EQ(next, workers);
            ASSERT_LE(max_count - min_count, 1);
        }
    }
}

TEST(PickMinRotated, MatchesScalarOracleUnderRandomLoads)
{
    // Property test for the front-tier JSQ pick: against a brute-force
    // oracle, the winner must be the *earliest shard in rotated order*
    // holding the global minimum load (strictly-smaller-wins contract,
    // common/shard.h). Small load ranges force heavy tying so the
    // tie-break path dominates the trials.
    Rng rng(2024);
    for (int trial = 0; trial < 20000; ++trial) {
        const size_t n = 1 + rng.below(16);
        uint32_t loads[16];
        for (size_t i = 0; i < n; ++i)
            loads[i] = static_cast<uint32_t>(rng.below(trial % 2 ? 4 : 1000));
        const uint64_t start = rng() % 1000;
        const int got = pick_min_rotated(loads, n, start);

        uint32_t min_load = loads[0];
        for (size_t i = 1; i < n; ++i)
            min_load = std::min(min_load, loads[i]);
        int oracle = -1;
        for (size_t step = 0; step < n; ++step) {
            const size_t i = (static_cast<size_t>(start % n) + step) % n;
            if (loads[i] == min_load) {
                oracle = static_cast<int>(i);
                break;
            }
        }
        ASSERT_EQ(got, oracle) << "trial " << trial << " n=" << n
                               << " start=" << start;
        ASSERT_EQ(loads[static_cast<size_t>(got)], min_load);
    }
}

TEST(PickMinRotated, RotationRoundRobinsTiedShards)
{
    // At idle every load estimate reads zero; successive rotated starts
    // must spread picks round-robin instead of piling onto shard 0.
    const uint32_t idle[4] = {0, 0, 0, 0};
    for (uint64_t k = 0; k < 64; ++k)
        EXPECT_EQ(pick_min_rotated(idle, 4, k),
                  static_cast<int>(k % 4));
}

TEST(Cycles, MonotonicAndCalibrated)
{
    const double ratio = cycles_per_ns();
    EXPECT_GT(ratio, 0.1);  // >100 MHz
    EXPECT_LT(ratio, 10.0); // <10 GHz
    const Cycles a = rdcycles();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const Cycles b = rdcycles();
    const double elapsed_ns = cycles_to_ns(b - a);
    EXPECT_GT(elapsed_ns, 4e6);
    EXPECT_LT(elapsed_ns, 1e9);
    EXPECT_NEAR(cycles_to_ns(ns_to_cycles(1000.0)), 1000.0, 2.0);
}

// ----------------------------------------------------------- CoreQueue --
//
// The runtime worker runs sched::CoreQueue with integer cycle ticks, the
// simulator with double nanosecond ticks. Fed integral ticks (bases
// divisible by 4, so the base/4 floor is integral too), both
// instantiations must make exactly the same decisions.

template <class Tick>
class CoreQueueTyped : public ::testing::Test
{
};

using TickTypes = ::testing::Types<uint64_t, double>;
TYPED_TEST_SUITE(CoreQueueTyped, TickTypes);

/** Grant item ids in order, settling each as preempted or finished. */
template <class Queue>
std::vector<int>
pick_sequence(Queue &q, int n, bool finish)
{
    std::vector<int> items;
    for (int i = 0; i < n; ++i) {
        const auto g = q.pick();
        items.push_back(g.item);
        q.settle(g.item, g.budget, finish);
    }
    return items;
}

TYPED_TEST(CoreQueueTyped, PsRotatesInAdmissionOrder)
{
    sched::CoreQueue<int, TypeParam> q(sched::Policy::ProcessorSharing, 0,
                                       0);
    for (int i = 1; i <= 3; ++i)
        q.admit(i, 0, 100);
    EXPECT_EQ(pick_sequence(q, 6, false),
              (std::vector<int>{1, 2, 3, 1, 2, 3}));
    q.admit(4, 1, 100); // joins the tail of the ring
    EXPECT_EQ(pick_sequence(q, 4, false), (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(pick_sequence(q, 4, true), (std::vector<int>{1, 2, 3, 4}));
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.account(0).runnable, 0u);
    EXPECT_EQ(q.account(0).grants, 12u);
    EXPECT_EQ(q.account(1).grants, 2u);
}

TYPED_TEST(CoreQueueTyped, LasIsFifoAmongEqualQuanta)
{
    sched::CoreQueue<int, TypeParam> q(sched::Policy::Las, 0, 0);
    for (int i = 1; i <= 4; ++i)
        q.admit(i, 0, 100);
    // Each item runs one quantum, then the next-least-attained goes.
    EXPECT_EQ(pick_sequence(q, 4, false), (std::vector<int>{1, 2, 3, 4}));
    q.admit(5, 0, 100); // fresh: least attained, runs first
    EXPECT_EQ(pick_sequence(q, 1, false), (std::vector<int>{5}));
    // Now all five hold one quantum: FIFO by requeue order.
    EXPECT_EQ(pick_sequence(q, 5, false),
              (std::vector<int>{1, 2, 3, 4, 5}));
    const auto g = q.pick();
    EXPECT_EQ(g.item, 1);
    EXPECT_EQ(g.quanta, 2u);
}

TYPED_TEST(CoreQueueTyped, PromotesAfterExactlyPromoteAfterSkips)
{
    for (const auto policy :
         {sched::Policy::Las, sched::Policy::ProcessorSharing}) {
        constexpr uint64_t kAfter = 3;
        sched::CoreQueue<int, TypeParam> q(policy, 0, kAfter);
        // Under LAS the long item, once served, ranks behind every
        // fresh short; under PS the shorts admitted ahead of it win
        // the ring.
        q.admit(99, 1, 100);
        if (policy == sched::Policy::Las) {
            const auto g = q.pick();
            ASSERT_EQ(g.item, 99);
            q.settle(g.item, 100, false);
        }
        for (int i = 1; i <= 8; ++i)
            q.admit(i, 0, 100);
        if (policy == sched::Policy::ProcessorSharing) {
            const auto g = q.pick(); // the long item leads the ring
            ASSERT_EQ(g.item, 99);
            q.settle(g.item, 100, false);
        }
        for (uint64_t k = 1; k <= kAfter; ++k) {
            const auto g = q.pick();
            EXPECT_NE(g.item, 99) << "grant " << k;
            EXPECT_FALSE(g.promoted);
            EXPECT_EQ(q.account(1).skipped, k);
            q.settle(g.item, 100, true);
        }
        const auto g = q.pick();
        EXPECT_EQ(g.item, 99);
        EXPECT_TRUE(g.promoted);
        EXPECT_EQ(q.promotions(), 1u);
        EXPECT_EQ(q.account(1).skipped, 0u);
        EXPECT_EQ(q.account(0).skipped, 1u);
    }
}

TYPED_TEST(CoreQueueTyped, FcfsIgnoresClampAndGuard)
{
    sched::CoreQueue<int, TypeParam> q(sched::Policy::Fcfs, 40, 1);
    q.admit(1, 0, 100);
    q.admit(2, 1, 100);
    q.admit(3, 1, 100);
    auto g = q.pick();
    q.settle(g.item, 10, true); // early: would bank credit under PS
    g = q.pick();
    EXPECT_EQ(g.item, 2);
    EXPECT_EQ(g.budget, TypeParam(100)) << "no deficit under FCFS";
    q.settle(g.item, 100, true);
    g = q.pick();
    EXPECT_EQ(g.item, 3);
    EXPECT_FALSE(g.promoted);
    EXPECT_EQ(q.account(0).deficit, 0);
}

/** One grant of the scripted trace: (item, budget, promoted). */
using GrantRow = std::tuple<int, int64_t, bool>;

/**
 * A scripted trace over three classes (bases 100, 40 and 8, clamp 60,
 * guard 5): admissions, slices that overrun their budget (the probe
 * fired late, so the class goes into debt and the base/4 + 1 floor
 * engages), early completions that bank credit, and a flood of class-0
 * admissions that starves the others until the guard promotes them.
 */
template <class Tick>
std::vector<GrantRow>
run_script(sched::Policy policy)
{
    constexpr int64_t kClamp = 60;
    const int64_t bases[3] = {100, 40, 8};
    sched::CoreQueue<int, Tick> q(policy, static_cast<Tick>(kClamp), 5);
    std::vector<int64_t> remaining;
    std::vector<GrantRow> rows;
    uint64_t lcg = 12345;
    auto next = [&](uint64_t n) {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return static_cast<int64_t>((lcg >> 33) % n);
    };
    auto admit = [&](int cls) {
        const int item = static_cast<int>(remaining.size());
        remaining.push_back(1 + next(400));
        q.admit(item, cls, static_cast<Tick>(bases[cls]));
    };
    for (int step = 0; step < 3000; ++step) {
        const bool flood = step >= 1000 && step < 1600;
        if (flood || next(3) == 0)
            admit(flood ? 0 : static_cast<int>(next(3)));
        if (q.empty())
            continue;
        const auto g = q.pick();
        const int64_t budget = static_cast<int64_t>(g.budget);
        rows.emplace_back(g.item, budget, g.promoted);
        int64_t &left = remaining[static_cast<size_t>(g.item)];
        int64_t used = std::min(budget, left);
        if (left > budget && next(4) == 0)
            used = budget + 1 + next(80); // overrun: late probe
        left -= std::min(used, left);
        q.settle(g.item, static_cast<Tick>(used), left == 0);
        for (int c = 0; c < 3; ++c) {
            const auto deficit = q.account(c).deficit;
            EXPECT_LE(deficit, kClamp) << "step " << step;
            EXPECT_GE(deficit, -kClamp) << "step " << step;
        }
    }
    EXPECT_GT(q.promotions(), 0u) << "the flood must trip the guard";
    return rows;
}

TEST(CoreQueue, CyclesAndNanosecondTicksGrantIdentically)
{
    for (const auto policy :
         {sched::Policy::ProcessorSharing, sched::Policy::Las}) {
        const auto cycles = run_script<uint64_t>(policy);
        const auto nanos = run_script<double>(policy);
        ASSERT_GT(cycles.size(), 2000u);
        EXPECT_EQ(cycles, nanos);
        // The trace exercised debt down to the floor and credit above
        // the base.
        const auto floor_hits = std::count_if(
            cycles.begin(), cycles.end(),
            [](const GrantRow &r) { return std::get<1>(r) == 40 / 4 + 1; });
        const auto credit = std::count_if(
            cycles.begin(), cycles.end(),
            [](const GrantRow &r) { return std::get<1>(r) > 100; });
        EXPECT_GT(floor_hits, 0);
        EXPECT_GT(credit, 0);
    }
}

} // namespace
} // namespace tq
