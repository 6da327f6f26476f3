/**
 * @file
 * Runtime layer: the real TQ runtime with 2 workers and 1 dispatcher,
 * driven from the calling thread (4 threads in all).
 *
 * One pass runs three phases on one runtime: open-loop Poisson at the
 * workload's light and mid rates (net::run_open_loop through a
 * recording net::Server adapter), then a closed loop that keeps
 * kWindow requests outstanding (the saturated phase). The untraced pass
 * gives the end-to-end metrics. The traced pass repeats it with a
 * stamping handler and per-request stamps at every layer boundary; its
 * requests are the spans written out at the end of the run.
 *
 * Every per-request record is allocated before its phase starts.
 */
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>

#include "common/cycles.h"
#include "common/rng.h"
#include "layers.h"
#include "net/loadgen.h"
#include "probe/probe.h"
#include "runtime/runtime.h"
#include "sim/sweep.h"
#include "workloads/spin.h"

namespace perfbench {

using namespace tq;
using runtime::Request;
using runtime::Response;

std::unique_ptr<RtWorkload>
make_workload(const std::string &name)
{
    auto w = std::make_unique<RtWorkload>();
    if (name == "rt_exp1") {
        w->dist = workload_table::exp1();
        w->light_mrps = 0.10;
        w->mid_mrps = 0.40;
    } else if (name == "rt_bimodal") {
        w->dist = workload_table::extreme_bimodal();
        w->light_mrps = 0.05;
        w->mid_mrps = 0.20;
    } else {
        return nullptr;
    }
    return w;
}

namespace {

constexpr int kWorkers = 2;
constexpr double kQuantumUs = 2.0;
constexpr size_t kWindow = 64;          ///< closed-loop outstanding requests
constexpr double kWarmup = 0.1;         ///< dropped prefix of each phase
constexpr double kDrainTimeoutS = 10.0; ///< stragglers after a phase
/**
 * Quiet-window statistics. A vCPU of a shared host is stolen for
 * 1-30 ms at a time, several percent of the time, and a stall of any
 * of the four threads stalls the pipeline. Each phase is therefore cut
 * into short windows, and a metric is taken from the quiet end of the
 * window distribution: latency is the lower quartile of the window
 * medians, throughput the upper quartile of the window rates. A stall
 * moves the windows it hits, not the metric, while a slower runtime
 * moves every window.
 */
constexpr size_t kMinWindowSamples = 50, kMaxWindows = 200;
constexpr double kQuietQuantile = 0.25;
constexpr int kRateWindows = 100;
constexpr double kRateQuantile = 0.75;
/** Slots per ring: an open loop cannot back off, so the RX queue must
 *  absorb a dispatcher stall of a few hundred milliseconds. */
constexpr size_t kRingCapacity = size_t{1} << 17;
constexpr uint64_t kWrongResultId = 1000; ///< self-test victim
/** Responses one drain_responses() call returns when every TX ring is full. */
constexpr size_t kMaxDrain = kWorkers * kRingCapacity;

/** Share of --seconds each phase of the untraced pass runs. */
constexpr double kLightShare = 0.15, kMidShare = 0.2, kSatShare = 0.15;
/** The traced pass runs each phase at most this long (its records are
 *  80 bytes per request and all stay in memory). */
constexpr double kTracedPhaseCapS = 1.0;

/** Job kinds the metrics split on: a job is long when its demand
 *  exceeds one quantum, i.e. when it must be preempted at least once
 *  (Extreme Bimodal: exactly the 500 us class). */
enum JobKind : uint8_t { kShortJob = 0, kLongJob = 1 };

/** Untraced per-request record (8 bytes). */
struct Slot
{
    float latency_us = 0; ///< due time -> collection
    uint8_t job_class = 0;
    uint8_t kind = kShortJob;
    uint8_t answers = 0;
};

/** Traced per-request stamps, in causal order. */
struct Stamps
{
    Cycles due = 0, submit_start = 0, submit_end = 0, arrival = 0,
           dispatch = 0, entry = 0, exit = 0, done = 0, collect = 0;
    uint32_t yields = 0;    ///< probe_state().yields delta in the handler
    uint32_t demand_ns = 0; ///< nominal service demand
};

enum Phase : uint8_t { kLight = 0, kMid = 1, kSat = 2, kPhases = 3 };
const char *const kPhaseName[kPhases] = {"light", "mid", "saturated"};

/** State the handler reads; the stamp array changes between phases. */
struct HandlerCtx
{
    std::atomic<Stamps *> stamps{nullptr};
    std::atomic<size_t> capacity{0};
    bool wrong_result = false;
};

runtime::RuntimeConfig
runtime_config()
{
    runtime::RuntimeConfig cfg;
    cfg.num_workers = kWorkers;
    cfg.num_dispatchers = 1;
    cfg.quantum_us = kQuantumUs;
    cfg.work = runtime::WorkPolicy::ProcessorSharing;
    cfg.ring_capacity = kRingCapacity;
    return cfg;
}

runtime::Handler
make_handler(HandlerCtx *ctx, bool traced)
{
    if (!traced)
        return [ctx](const Request &r) -> uint64_t {
            workloads::spin_for(static_cast<SimNanos>(r.payload));
            return ctx->wrong_result && r.id == kWrongResultId ? r.id + 1
                                                                : r.id;
        };
    return [ctx](const Request &r) -> uint64_t {
        Stamps *const st = ctx->stamps.load(std::memory_order_relaxed);
        const bool in_range =
            st != nullptr &&
            r.id < ctx->capacity.load(std::memory_order_relaxed);
        const Cycles entry = rdcycles();
        const uint64_t y0 = probe_state().yields;
        workloads::spin_for(static_cast<SimNanos>(r.payload));
        const uint64_t yields = probe_state().yields - y0;
        const Cycles exit = rdcycles();
        if (in_range) {
            Stamps &s = st[r.id];
            s.arrival = r.arrival_cycles;
#if defined(TQ_TELEMETRY_ENABLED)
            s.dispatch = r.dispatch_cycles;
#else
            s.dispatch = r.arrival_cycles; // the stamp is compiled out
#endif
            s.entry = entry;
            s.exit = exit;
            s.yields = static_cast<uint32_t>(yields);
        }
        return ctx->wrong_result && r.id == kWrongResultId ? r.id + 1
                                                            : r.id;
    };
}

/** Correctness and load counters of one phase. */
struct PhaseCheck
{
    uint64_t attempted = 0;
    uint64_t rejected = 0;   ///< submit() returned false
    uint64_t unanswered = 0; ///< not collected by the drain timeout
    uint64_t duplicates = 0;
    uint64_t wrong = 0;      ///< wrong result or wrong class
    uint64_t out_of_range = 0;

    uint64_t
    failures() const
    {
        return rejected + unanswered + duplicates + wrong + out_of_range;
    }
};

/**
 * net::Server adapter that records every request and response: the
 * answer count, result and class checks and the due-to-collection
 * latency always; the submit, drain and collection stamps only when
 * traced.
 */
class RecordingServer : public net::Server
{
  public:
    RecordingServer(runtime::Runtime &rt, Slot *slots, Stamps *stamps,
                    size_t capacity)
        : rt_(rt), slots_(slots), stamps_(stamps), capacity_(capacity),
          ns_per_cycle_(1.0 / cycles_per_ns())
    {
    }

    bool
    submit(const Request &req) override
    {
        ++check.attempted;
        if (req.id >= capacity_) {
            ++check.out_of_range;
            return false;
        }
        Slot &s = slots_[req.id];
        s.job_class = static_cast<uint8_t>(req.job_class);
        s.kind = static_cast<double>(req.payload) > kQuantumUs * 1e3
                     ? kLongJob
                     : kShortJob;
        bool ok = false;
        if (stamps_ != nullptr) {
            Stamps &st = stamps_[req.id];
            st.due = req.gen_cycles;
            st.demand_ns = static_cast<uint32_t>(req.payload);
            st.submit_start = rdcycles();
            ok = rt_.submit(req);
            st.submit_end = rdcycles();
        } else {
            ok = rt_.submit(req);
        }
        if (ok)
            ++sent;
        else
            ++check.rejected;
        return ok;
    }

    size_t
    drain(std::vector<Response> &out) override
    {
        if (out.capacity() < kMaxDrain) {
            // Fault the collection buffer in once, before it is needed:
            // a burst after a stall would otherwise grow it mid-phase,
            // and peak RSS would depend on the longest stall.
            const size_t n = out.size();
            out.resize(kMaxDrain);
            out.resize(n);
        }
        const size_t before = out.size();
        const Cycles t0 = stamps_ != nullptr ? rdcycles() : 0;
        rt_.drain_responses(out);
        const Cycles now = rdcycles();
        const size_t n = out.size() - before;
        if (stamps_ != nullptr) {
            drain_cycles += now - t0;
            ++drain_calls;
        }
        if (n > 0) {
            ++nonempty_drains;
            collected += n;
        }
        for (size_t i = before; i < out.size(); ++i)
            record(out[i], now);
        return n;
    }

    /** The phase's checks; the phase fills in `unanswered` once drained. */
    PhaseCheck check;
    uint64_t sent = 0;      ///< accepted by submit()
    uint64_t answered = 0;  ///< distinct in-range ids collected
    uint64_t collected = 0; ///< every response collected

    uint64_t drain_calls = 0, nonempty_drains = 0;
    Cycles drain_cycles = 0;

  private:
    void
    record(const Response &r, Cycles now)
    {
        if (r.id >= capacity_) {
            ++check.out_of_range;
            return;
        }
        Slot &s = slots_[r.id];
        if (++s.answers > 1) {
            ++check.duplicates;
            return;
        }
        ++answered;
        if (r.result != r.id || r.job_class != s.job_class)
            ++check.wrong;
        s.latency_us = static_cast<float>(
            static_cast<double>(now - r.gen_cycles) * ns_per_cycle_ / 1e3);
        if (stamps_ != nullptr) {
            stamps_[r.id].done = r.done_cycles;
            stamps_[r.id].collect = now;
        }
    }

    runtime::Runtime &rt_;
    Slot *slots_;
    Stamps *stamps_;
    size_t capacity_;
    double ns_per_cycle_;
};

/** Telemetry counters read at a phase's start and end. */
struct TelemetryDelta
{
    telemetry::MetricsSnapshot a, b;

    double
    quanta_per_job() const
    {
        const double jobs = static_cast<double>(b.finished - a.finished);
        return jobs > 0 ? static_cast<double>(b.quanta - a.quanta) / jobs : 0;
    }

    double
    preempt_overshoot_ns() const
    {
        const double n = static_cast<double>(b.preempt.count) -
                         static_cast<double>(a.preempt.count);
        return n > 0 ? (b.preempt.mean_ns * static_cast<double>(b.preempt.count) -
                        a.preempt.mean_ns * static_cast<double>(a.preempt.count)) /
                           n
                     : 0;
    }

    double
    dispatch_batch_mean() const
    {
        const double batches = static_cast<double>(b.dispatch_batches) -
                               static_cast<double>(a.dispatch_batches);
        const double jobs =
            b.mean_dispatch_batch * static_cast<double>(b.dispatch_batches) -
            a.mean_dispatch_batch * static_cast<double>(a.dispatch_batches);
        return batches > 0 ? jobs / batches : 0;
    }
};

/** What one phase leaves behind for the metrics. */
struct PhaseResult
{
    PhaseCheck check;
    std::vector<Slot> slots;
    std::vector<Stamps> stamps; ///< traced pass only
    uint64_t submitted = 0;     ///< ids [0, submitted) were attempted
    double capacity_mrps = 0;   ///< saturated phase only
    double gen_ceiling_mrps = 0;
    double drain_ns = 0, drain_batch = 0;
    TelemetryDelta telem;
};

size_t
phase_capacity(double rate_mrps, double seconds)
{
    const double n = rate_mrps * 1e6 * seconds;
    return static_cast<size_t>(n + 10.0 * std::sqrt(n) + 1024.0);
}

PhaseResult
open_loop_phase(runtime::Runtime &rt, HandlerCtx &ctx, const RtWorkload &w,
                double rate_mrps, double seconds, uint64_t seed, bool traced)
{
    PhaseResult res;
    const size_t cap = phase_capacity(rate_mrps, seconds);
    res.slots.assign(cap, Slot{});
    if (traced) {
        res.stamps.assign(cap, Stamps{});
        ctx.capacity.store(cap, std::memory_order_relaxed);
        ctx.stamps.store(res.stamps.data(), std::memory_order_relaxed);
    }
    RecordingServer server(rt, res.slots.data(),
                           traced ? res.stamps.data() : nullptr, cap);
    net::LoadGenConfig cfg;
    cfg.rate_mrps = rate_mrps;
    cfg.duration_sec = seconds;
    cfg.warmup = kWarmup;
    cfg.drain_timeout_sec = kDrainTimeoutS;
    cfg.seed = seed;
    if (traced)
        res.telem.a = rt.telemetry_snapshot();
    const net::ClientStats cs = net::run_open_loop(
        server, *w.dist, net::spin_request_factory(), cfg);
    if (traced)
        res.telem.b = rt.telemetry_snapshot();
    res.check = server.check;
    res.check.unanswered = server.sent - server.answered;
    res.submitted = cs.submitted + cs.send_failures;
    if (traced) {
        res.drain_ns = server.drain_calls > 0
                           ? cycles_to_ns(server.drain_cycles) /
                                 static_cast<double>(server.drain_calls)
                           : 0;
        res.drain_batch =
            server.nonempty_drains > 0
                ? static_cast<double>(server.collected) /
                      static_cast<double>(server.nonempty_drains)
                : 0;
    }
    return res;
}

PhaseResult
closed_loop_phase(runtime::Runtime &rt, HandlerCtx &ctx, const RtWorkload &w,
                  double seconds, uint64_t seed, bool traced)
{
    PhaseResult res;
    // Room for nearly twice the fastest rate either workload reaches;
    // running out is counted as a failure by the adapter.
    const size_t cap = phase_capacity(1.5, seconds);
    res.slots.assign(cap, Slot{});
    if (traced) {
        res.stamps.assign(cap, Stamps{});
        ctx.capacity.store(cap, std::memory_order_relaxed);
        ctx.stamps.store(res.stamps.data(), std::memory_order_relaxed);
    }
    RecordingServer server(rt, res.slots.data(),
                           traced ? res.stamps.data() : nullptr, cap);
    Rng rng(seed);
    const auto factory = net::spin_request_factory();
    uint64_t next_id = 0;
    auto send = [&] {
        const ServiceSample s = w.dist->sample(rng);
        Request req = factory(s, next_id);
        req.id = next_id++;
        req.gen_cycles = rdcycles(); // closed loop: due when sent
        server.submit(req);
    };

    if (traced)
        res.telem.a = rt.telemetry_snapshot();
    std::vector<Response> out;
    out.reserve(4 * kWindow);
    const Cycles start = rdcycles();
    const Cycles warm = start + ns_to_cycles(seconds * kWarmup * 1e9);
    const Cycles end = start + ns_to_cycles(seconds * 1e9);
    for (size_t i = 0; i < kWindow; ++i)
        send();
    const Cycles window_len = (end - warm) / kRateWindows;
    uint64_t in_window[kRateWindows] = {};
    Cycles busy = 0; // generator time on non-empty drains and resubmits
    uint64_t busy_jobs = 0;
    Cycles now = rdcycles();
    while (now < end) {
        out.clear();
        const Cycles t0 = now;
        const size_t n = server.drain(out);
        if (n == 0) {
            now = rdcycles();
            continue;
        }
        for (size_t i = 0; i < n; ++i)
            send();
        now = rdcycles();
        busy += now - t0;
        busy_jobs += n;
        if (t0 >= warm) {
            const Cycles k = (t0 - warm) / window_len;
            if (k < kRateWindows)
                in_window[k] += n;
        }
    }
    // Stop sending and collect everything still outstanding.
    const Cycles drain_end = rdcycles() + ns_to_cycles(kDrainTimeoutS * 1e9);
    while (server.answered < server.sent && rdcycles() < drain_end) {
        out.clear();
        server.drain(out);
    }
    if (traced)
        res.telem.b = rt.telemetry_snapshot();

    res.check = server.check;
    res.check.unanswered = server.sent - server.answered;
    res.submitted = next_id;
    std::vector<double> rates;
    for (uint64_t c : in_window)
        rates.push_back(static_cast<double>(c) * 1e3 /
                        cycles_to_ns(window_len));
    res.capacity_mrps = quantile(rates, kRateQuantile);
    // Per completed job the generator pays a share of one drain call plus
    // one resubmit: the rate it could sustain with no waiting at all.
    res.gen_ceiling_mrps =
        busy > 0 ? static_cast<double>(busy_jobs) * 1e3 / cycles_to_ns(busy)
                 : 0;
    return res;
}

/** One runtime pass: the three phases on one runtime. */
struct Pass
{
    PhaseResult phase[kPhases];
    uint64_t dropped = 0, abandoned = 0;
    uint64_t dispatch_full_spins = 0, tx_full_spins = 0;
    bool drained_clean = false;
};

Pass
run_pass(const RtWorkload &w, const RunOptions &opt, bool traced,
         const double secs[kPhases])
{
    HandlerCtx ctx;
    ctx.wrong_result = opt.inject_wrong_result;
    runtime::Runtime rt(runtime_config(), make_handler(&ctx, traced));
    rt.start();
    Pass p;
    p.phase[kLight] = open_loop_phase(rt, ctx, w, w.light_mrps, secs[kLight],
                                      sim::derive_seed(opt.seed, 10), traced);
    p.phase[kMid] = open_loop_phase(rt, ctx, w, w.mid_mrps, secs[kMid],
                                    sim::derive_seed(opt.seed, 11), traced);
    p.phase[kSat] = closed_loop_phase(rt, ctx, w, secs[kSat],
                                      sim::derive_seed(opt.seed, 12), traced);
    p.drained_clean = rt.drain(kDrainTimeoutS);
    ctx.stamps.store(nullptr, std::memory_order_relaxed);
    p.dropped = rt.dropped_responses();
    p.abandoned = rt.abandoned_jobs();
    p.dispatch_full_spins = rt.dispatch_ring_full_spins();
    p.tx_full_spins = rt.tx_ring_full_spins();
    return p;
}

/** Post-warm-up latencies of one phase in due-time (id) order. */
struct Latencies
{
    std::vector<double> all, by_kind[2];

    /** p50_us: the short class, or every job of a one-class workload. */
    const std::vector<double> &
    primary(bool one_class) const
    {
        return one_class ? all : by_kind[kShortJob];
    }
};

Latencies
latencies(const PhaseResult &ph)
{
    Latencies l;
    const size_t first = static_cast<size_t>(
        kWarmup * static_cast<double>(ph.submitted));
    for (size_t id = first; id < ph.submitted && id < ph.slots.size(); ++id) {
        const Slot &s = ph.slots[id];
        if (s.answers != 1)
            continue;
        l.all.push_back(s.latency_us);
        l.by_kind[s.kind].push_back(s.latency_us);
    }
    return l;
}

/** Window medians of @p v cut into consecutive windows of at least
 *  kMinWindowSamples (at most kMaxWindows windows). */
std::vector<double>
window_medians(const std::vector<double> &v)
{
    const size_t n = std::clamp<size_t>(v.size() / kMinWindowSamples, 1,
                                        kMaxWindows);
    std::vector<double> out;
    for (size_t k = 0; k < n && !v.empty(); ++k) {
        std::vector<double> w(v.begin() + static_cast<long>(v.size() * k / n),
                              v.begin() +
                                  static_cast<long>(v.size() * (k + 1) / n));
        out.push_back(median(w));
    }
    return out;
}

/** The median latency of a quiet stretch of the phase: the
 *  kQuietQuantile-quantile of the window medians. */
double
quiet_p50(const std::vector<double> &v)
{
    std::vector<double> m = window_medians(v);
    return quantile(m, kQuietQuantile);
}

/** The request's child spans, in order; they tile [due, collect]. */
constexpr int kChildren = 8;
enum Child { kLag, kSubmit, kRx, kDispatch, kQueue, kHandler, kComplete, kTx };

/** Child span boundaries. The submit call and the dispatcher overlap
 *  when the dispatcher picks the request up before submit() returns;
 *  the overlap is charged to net.submit, so rx starts at the earlier
 *  of submit return and arrival. */
void
boundaries(const Stamps &s, Cycles b[kChildren + 1])
{
    b[0] = s.due;
    b[1] = s.submit_start;
    b[2] = std::min(s.submit_end, s.arrival);
    b[3] = s.arrival;
    b[4] = s.dispatch;
    b[5] = s.entry;
    b[6] = s.exit;
    b[7] = s.done;
    b[8] = s.collect;
}

/**
 * Span statistics of one traced phase, in ns. Durations are quiet-window
 * medians (quiet_p50) like the end-to-end latencies; the per-operation
 * costs (submit call, handler inflation, yields) are means or ratios of
 * sums over the post-warm-up requests.
 */
struct SpanStats
{
    double child[kChildren] = {};
    double queue[2] = {}; ///< worker.queue by job kind
    double request = 0;
    double lag_p99 = 0;
    double submit_call = 0;   ///< mean submit() call
    double service_short = 0; ///< handler span, never-yielded short jobs
    double inflation = 0;     ///< never-yielded service / nominal demand
    double wall_long = 0;     ///< handler span of long jobs
    double preempts_long = 0; ///< mean probe yields during long jobs
    double mean_demand = 0;
    uint64_t requests = 0;
    uint64_t nonmonotone = 0, untiled = 0;
};

SpanStats
span_stats(const PhaseResult &ph)
{
    SpanStats m;
    std::vector<double> child[kChildren], queue[2], request, service_short,
        wall_long;
    double submit_call = 0, svc_nonyield = 0, demand_nonyield = 0,
           demand_all = 0, yields_long = 0;
    const double ns = 1.0 / cycles_per_ns();
    const size_t first = static_cast<size_t>(
        kWarmup * static_cast<double>(ph.submitted));
    const size_t last = std::min<size_t>(ph.submitted, ph.stamps.size());
    for (size_t id = 0; id < last; ++id) {
        if (ph.slots[id].answers != 1)
            continue;
        const Stamps &s = ph.stamps[id];
        Cycles b[kChildren + 1];
        boundaries(s, b);
        // Closure check, warm-up included: monotone stamps whose child
        // spans add up to the request span exactly.
        bool monotone = s.submit_start <= s.submit_end;
        Cycles tiled = 0;
        for (int c = 0; c < kChildren; ++c) {
            monotone = monotone && b[c] <= b[c + 1];
            tiled += b[c + 1] - b[c];
        }
        if (!monotone) {
            ++m.nonmonotone;
            continue;
        }
        if (tiled != s.collect - s.due)
            ++m.untiled;
        if (id < first)
            continue;

        ++m.requests;
        const uint8_t kind = ph.slots[id].kind;
        for (int c = 0; c < kChildren; ++c)
            child[c].push_back(static_cast<double>(b[c + 1] - b[c]) * ns);
        queue[kind].push_back(child[kQueue].back());
        request.push_back(static_cast<double>(s.collect - s.due) * ns);
        submit_call += static_cast<double>(s.submit_end - s.submit_start) * ns;
        const double handler_ns = child[kHandler].back();
        demand_all += s.demand_ns;
        if (s.yields == 0) {
            svc_nonyield += handler_ns;
            demand_nonyield += s.demand_ns;
            if (kind == kShortJob)
                service_short.push_back(handler_ns);
        }
        if (kind == kLongJob) {
            wall_long.push_back(handler_ns);
            yields_long += s.yields;
        }
    }
    if (m.requests == 0)
        return m;
    const double n = static_cast<double>(m.requests);
    for (int c = 0; c < kChildren; ++c)
        m.child[c] = quiet_p50(child[c]);
    m.queue[0] = quiet_p50(queue[0]);
    m.queue[1] = quiet_p50(queue[1]);
    m.request = quiet_p50(request);
    m.service_short = quiet_p50(service_short);
    m.wall_long = quiet_p50(wall_long);
    m.lag_p99 = quantile(child[kLag], 0.99);
    m.submit_call = submit_call / n;
    m.inflation = demand_nonyield > 0 ? svc_nonyield / demand_nonyield : 0;
    m.preempts_long =
        wall_long.empty() ? 0
                          : yields_long / static_cast<double>(wall_long.size());
    m.mean_demand = demand_all / n;
    return m;
}

/** The pass's correctness checks, counted into @p rep. */
void
check_pass(const Pass &p, const char *pass_name, Report &rep)
{
    for (int ph = 0; ph < kPhases; ++ph) {
        const PhaseCheck &c = p.phase[ph].check;
        const std::string where =
            std::string("runtime: ") + pass_name + " " + kPhaseName[ph];
        if (c.duplicates > 0)
            rep.fail(where + ": an id was answered more than once");
        if (c.wrong > 0)
            rep.fail(where + ": a response has the wrong result or class");
        if (c.out_of_range > 0)
            rep.fail(where + ": ids outran the preallocated records");
        if (c.unanswered > 0)
            rep.fail(where + ": requests were not collected by the drain "
                             "timeout");
        if (c.rejected > 0)
            rep.fail(where + ": submit() rejected requests");
        rep.attempt(c.attempted, c.failures());
    }
    if (p.dropped > 0 || p.abandoned > 0 || !p.drained_clean) {
        rep.fail(std::string("runtime: ") + pass_name +
                 ": the runtime dropped or abandoned jobs");
        rep.attempt(0, p.dropped + p.abandoned);
    }
}

} // namespace

double
measure_setup(int reps)
{
    std::vector<double> samples;
    for (int i = 0; i < reps; ++i) {
        HandlerCtx ctx;
        const double t0 = now_s();
        auto rt = std::make_unique<runtime::Runtime>(runtime_config(),
                                                     make_handler(&ctx, false));
        rt->start();
        const double t1 = now_s();
        rt.reset(); // stop() and join, untimed
        const double t2 = now_s();
        const std::vector<compiler::Module> corpus = build_corpus();
        samples.push_back((t1 - t0) + (now_s() - t2));
    }
    return median(samples);
}

RtSummary
run_runtime_layer(const RtWorkload &w, const RunOptions &opt, Report &rep)
{
    RtSummary sum;
    const double secs[kPhases] = {opt.seconds * kLightShare,
                                  opt.seconds * kMidShare,
                                  opt.seconds * kSatShare};
    // The short class carries p50_us; a one-class workload uses all jobs.
    const bool exp_like = w.dist->class_names().size() == 1;

    Pass plain = run_pass(w, opt, false, secs);
    check_pass(plain, "untraced", rep);
    uint64_t attempted_open = 0, failed_open = plain.dropped + plain.abandoned;
    for (int ph : {kLight, kMid}) {
        attempted_open += plain.phase[ph].check.attempted;
        failed_open += plain.phase[ph].check.failures();
    }

    Latencies light = latencies(plain.phase[kLight]);
    Latencies mid = latencies(plain.phase[kMid]);
    const double capacity = plain.phase[kSat].capacity_mrps;
    sum.capacity_mrps = capacity;

    rep.e2e("capacity_mrps", capacity, "Mrps");
    const double p50 = quiet_p50(mid.primary(exp_like));
    rep.e2e("p50_us", p50, "us");
    rep.e2e("light_p50_us", quiet_p50(light.primary(exp_like)), "us");
    rep.e2e("long_p50_us", quiet_p50(mid.by_kind[kLongJob]), "us");

    // Tails are informational: hypervisor steal moves them run to run.
    const double n_mid = static_cast<double>(mid.all.size());
    rep.info("mid.samples", n_mid, "count");
    rep.info("mid.long_samples",
             static_cast<double>(mid.by_kind[kLongJob].size()), "count");
    rep.info("mid.p99_us", quantile(mid.all, 0.99), "us");
    rep.info("mid.p999_us", quantile(mid.all, 0.999), "us");
    rep.info("light.samples", static_cast<double>(light.all.size()), "count");
    rep.info("light.p99_us", quantile(light.all, 0.99), "us");

    const double gen_ceiling = plain.phase[kSat].gen_ceiling_mrps;
    if (capacity >= 0.9 * gen_ceiling)
        rep.note("saturated phase is generator-bound: capacity_mrps " +
                 std::to_string(capacity) + " reaches the generator "
                 "ceiling " + std::to_string(gen_ceiling));

    rep.layer("fail_frac",
              attempted_open > 0 ? static_cast<double>(failed_open) /
                                       static_cast<double>(attempted_open)
                                 : 0,
              "ratio");
    rep.layer("dispatch.ring_full_spins",
              static_cast<double>(plain.dispatch_full_spins), "count");
    rep.layer("tx.full_spins", static_cast<double>(plain.tx_full_spins),
              "count");
    rep.layer("net.gen_ceiling_mrps", gen_ceiling, "Mrps");

    if (!opt.trace)
        return sum;

    double traced_secs[kPhases];
    for (int ph = 0; ph < kPhases; ++ph)
        traced_secs[ph] = std::min(secs[ph], kTracedPhaseCapS);
    Pass traced = run_pass(w, opt, true, traced_secs);
    check_pass(traced, "traced", rep);

    SpanStats sm[kPhases];
    for (int ph = 0; ph < kPhases; ++ph) {
        sm[ph] = span_stats(traced.phase[ph]);
        if (sm[ph].nonmonotone > 0)
            rep.fail(std::string("trace: ") + kPhaseName[ph] + ": " +
                     std::to_string(sm[ph].nonmonotone) +
                     " requests have non-monotone stamps");
        if (sm[ph].untiled > 0)
            rep.fail(std::string("trace: ") + kPhaseName[ph] +
                     ": child spans do not tile their request");
    }
    const SpanStats &m = sm[kMid];
    const SpanStats &l = sm[kLight];
    const PhaseResult &tsat = traced.phase[kSat];
    const PhaseResult &tmid = traced.phase[kMid];

    rep.layer("net.lag_p99_us", m.lag_p99 / 1e3, "us");
    rep.layer("net.submit_ns", m.submit_call, "ns");
    rep.layer("net.submit_ns.light", l.submit_call, "ns");
    rep.layer("net.drain_ns", tmid.drain_ns, "ns");
    rep.layer("net.drain_batch", tmid.drain_batch, "count");
    rep.layer("rx.wait_us", m.child[kRx] / 1e3, "us");
    rep.layer("rx.wait_us.light", l.child[kRx] / 1e3, "us");
    rep.layer("dispatch.us", m.child[kDispatch] / 1e3, "us");
    rep.layer("dispatch.us.light", l.child[kDispatch] / 1e3, "us");
    rep.layer("worker.queue_us.short", m.queue[kShortJob] / 1e3, "us");
    rep.layer("worker.queue_us.long", m.queue[kLongJob] / 1e3, "us");
    rep.layer("worker.queue_us.short.light", l.queue[kShortJob] / 1e3, "us");
    rep.layer("worker.complete_us", m.child[kComplete] / 1e3, "us");
    rep.layer("worker.complete_us.light", l.child[kComplete] / 1e3, "us");
    rep.layer("worker.overhead_ns_per_job",
              kWorkers * 1e3 / capacity -
                  sm[kSat].inflation * sm[kSat].mean_demand,
              "ns");
    rep.layer("worker.preempts_per_long", m.preempts_long, "count");
    rep.layer("worker.quanta_per_job", tsat.telem.quanta_per_job(), "count");
    rep.layer("handler.service_us.short", m.service_short / 1e3, "us");
    rep.layer("handler.inflation", m.inflation, "ratio");
    rep.layer("handler.wall_us.long", m.wall_long / 1e3, "us");
    rep.layer("tx.wait_us", m.child[kTx] / 1e3, "us");
    rep.layer("tx.wait_us.light", l.child[kTx] / 1e3, "us");
    rep.layer("request_us", m.request / 1e3, "us");
    rep.layer("request_us.light", l.request / 1e3, "us");
    rep.layer("telemetry.preempt_overshoot_ns",
              tsat.telem.preempt_overshoot_ns(), "ns");
    rep.layer("telemetry.dispatch_batch_mean",
              tsat.telem.dispatch_batch_mean(), "count");

    rep.layer("trace.overhead_p50_us",
              quiet_p50(latencies(tmid).primary(exp_like)) - p50, "us");
    rep.layer("trace.overhead_capacity_mrps", tsat.capacity_mrps - capacity,
              "Mrps");
    rep.layer("trace.requests",
              static_cast<double>(sm[kLight].requests + sm[kMid].requests +
                                  sm[kSat].requests),
              "count");

    // Keep every traced request for the span file written at exit.
    sum.spans.reserve(traced.phase[kLight].submitted +
                      traced.phase[kMid].submitted +
                      traced.phase[kSat].submitted);
    for (int ph = 0; ph < kPhases; ++ph) {
        const PhaseResult &pr = traced.phase[ph];
        for (size_t id = 0; id < pr.submitted && id < pr.stamps.size(); ++id) {
            if (pr.slots[id].answers != 1)
                continue;
            const Stamps &s = pr.stamps[id];
            RequestSpans r;
            r.phase = static_cast<uint32_t>(ph);
            r.id = id;
            Cycles b[kChildren + 1];
            boundaries(s, b);
            std::copy(b, b + kChildren + 1, r.bounds);
            r.yields = s.yields;
            r.demand_ns = s.demand_ns;
            sum.spans.push_back(r);
        }
    }
    return sum;
}

void
write_request_spans(const RtSummary &rt, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        return;
    std::fwrite(rt.spans.data(), sizeof(RequestSpans), rt.spans.size(), f);
    std::fclose(f);
}

} // namespace perfbench
