/**
 * @file
 * Simulator layer: the two-level simulator on one thread.
 *
 * The grid is one search and three fixed points:
 *  - Extreme Bimodal at 16 cores: bisection (max_rate_under_slo) for
 *    the highest rate whose overall p999 slowdown stays within 10
 *    (`sim_capacity_mrps`), then that rate once more;
 *  - TPC-C at 16 cores and 0.60 Mrps with per-class quanta
 *    {6,6,5,1,1} us, an 8 us deficit clamp and a starvation guard of
 *    128 (`sim_tpcc_p999_slowdown`, Payment class);
 *  - the 2-core twin of the run's runtime workload, offered twice its
 *    nominal capacity with admission capped at the runtime's closed-loop
 *    window, so it completes jobs as fast as the modelled cluster can
 *    (`sim.twin_capacity_mrps`, the base of `calib.ratio`).
 * The fixed points run twice and must agree bit for bit.
 */
#include <cstring>

#include "layers.h"
#include "sim/sweep.h"
#include "sim/two_level.h"

namespace perfbench {

using namespace tq;

namespace {

/** Simulated completions and wall time over every run_two_level call. */
struct SimTally
{
    uint64_t runs = 0;
    uint64_t completed = 0;
    double wall_s = 0;
};

/** The twin mirrors the runtime layer: 2 workers, a 2 us quantum and a
 *  closed loop of 64 outstanding requests. */
constexpr int kTwinCores = 2;
constexpr double kTwinQuantumUs = 2.0;
constexpr size_t kTwinWindow = 64;

/** The grid's fixed points, compared across the two repeats. */
struct FixedPoints
{
    sim::SimResult eb_at_capacity;
    sim::SimResult tpcc;
    sim::SimResult twin;
};

sim::SimResult
timed_run(const sim::TwoLevelConfig &cfg, const ServiceDist &dist,
          double rate, SimTally &tally, std::vector<CallSpan> *spans)
{
    sim::SimResult r;
    tally.wall_s += timed_call(spans, "sim.run_two_level", [&] {
        r = sim::run_two_level(cfg, dist, rate);
    });
    ++tally.runs;
    tally.completed += r.completed;
    return r;
}

sim::TwoLevelConfig
eb_config(uint64_t seed)
{
    sim::TwoLevelConfig c;
    c.num_cores = 16;
    c.duration = ms(200);
    c.seed = sim::derive_seed(seed, 0);
    return c;
}

/** Extreme Bimodal capacity at 16 cores under p999 slowdown <= 10. */
double
eb_capacity_mrps(uint64_t seed, SimTally &tally, std::vector<CallSpan> *spans)
{
    sim::TwoLevelConfig c = eb_config(seed);
    c.stop_when_saturated = true;
    const auto eb = workload_table::extreme_bimodal();
    double rate = 0;
    timed_call(spans, "sim.max_rate_under_slo", [&] {
        rate = sim::max_rate_under_slo(
            [&](double r) { return timed_run(c, *eb, r, tally, spans); },
            sim::slowdown_slo(10.0), mrps(3.0), mrps(5.3), 8);
    });
    return rate * 1e3; // req/ns -> Mrps
}

FixedPoints
fixed_points(const RtWorkload &w, uint64_t seed, double eb_mrps,
             SimTally &tally, std::vector<CallSpan> *spans)
{
    FixedPoints f;
    const auto eb = workload_table::extreme_bimodal();
    // A failed search (0) still runs the point, at the bracket's floor.
    f.eb_at_capacity = timed_run(eb_config(seed), *eb,
                                 mrps(eb_mrps > 0 ? eb_mrps : 3.0), tally,
                                 spans);

    sim::TwoLevelConfig tp;
    tp.num_cores = 16;
    tp.duration = ms(500);
    tp.seed = sim::derive_seed(seed, 1);
    tp.class_quantum = {us(6), us(6), us(5), us(1), us(1)};
    tp.deficit_clamp = us(8);
    tp.starvation_promote_after = 128;
    const auto tpcc = workload_table::tpcc();
    f.tpcc = timed_run(tp, *tpcc, mrps(0.60), tally, spans);

    sim::TwoLevelConfig twin;
    twin.num_cores = kTwinCores;
    twin.quantum = us(kTwinQuantumUs);
    twin.duration = ms(200);
    twin.seed = sim::derive_seed(seed, 2);
    twin.max_in_flight = kTwinWindow;
    const double nominal = kTwinCores / w.dist->mean(); // req/ns
    f.twin = timed_run(twin, *w.dist, 2.0 * nominal, tally, spans);
    return f;
}

bool
same_bits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

} // namespace

void
run_sim_layer(const RtWorkload &w, const RtSummary &rt,
              const RunOptions &opt, Report &rep)
{
    std::vector<CallSpan> *spans = opt.trace ? &rep.spans() : nullptr;
    SimTally tally;
    const double capacity = eb_capacity_mrps(opt.seed, tally, spans);
    const FixedPoints a = fixed_points(w, opt.seed, capacity, tally, spans);
    const FixedPoints b = fixed_points(w, opt.seed, capacity, tally, spans);

    const double payment = a.tpcc.by_class("Payment").p999_slowdown;
    const double twin_mrps = a.twin.throughput * 1e3;
    if (!same_bits(a.eb_at_capacity.overall_p999_slowdown,
                   b.eb_at_capacity.overall_p999_slowdown) ||
        !same_bits(payment, b.tpcc.by_class("Payment").p999_slowdown) ||
        !same_bits(a.twin.throughput, b.twin.throughput) ||
        a.eb_at_capacity.completed != b.eb_at_capacity.completed ||
        a.tpcc.completed != b.tpcc.completed)
        rep.fail("sim: two in-process repeats of the fixed points differ");
    if (a.tpcc.saturated)
        rep.fail("sim: the TPC-C point at 0.60 Mrps saturated");
    if (capacity <= 0 || a.eb_at_capacity.saturated ||
        a.eb_at_capacity.overall_p999_slowdown > 10.0)
        rep.fail("sim: the Extreme Bimodal capacity point misses its SLO");
    if (a.twin.dropped == 0)
        rep.fail("sim: the 2-core twin never filled its window");
    rep.attempt(tally.runs, 0);

    rep.e2e("sim_jobs_per_s",
            static_cast<double>(tally.completed) / tally.wall_s / 1e6, "M/s");
    rep.e2e("sim_capacity_mrps", capacity, "Mrps");
    rep.e2e("sim_tpcc_p999_slowdown", payment, "ratio");

    rep.layer("sim.run_ms", tally.wall_s * 1e3 / tally.runs, "ms");
    rep.layer("sim.runs", static_cast<double>(tally.runs), "count");
    rep.layer("sim.twin_capacity_mrps", twin_mrps, "Mrps");
    rep.layer("calib.ratio", rt.capacity_mrps / twin_mrps, "ratio");
    rep.info("sim.eb_p999_slowdown_at_capacity",
             a.eb_at_capacity.overall_p999_slowdown, "ratio");
    rep.info("sim.tpcc_completed", static_cast<double>(a.tpcc.completed),
             "count");
}

} // namespace perfbench
