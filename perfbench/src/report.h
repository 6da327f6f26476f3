/**
 * @file
 * Result bookkeeping shared by the benchmark's layers: named metrics
 * with units, informational figures, correctness failures, per-call
 * spans, and the small statistics helpers the layers use.
 */
#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** One named figure with its unit. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** One timed call into a public function (sim and compiler layers). */
struct CallSpan
{
    std::string name;
    double start_s = 0; ///< seconds since the run started
    double end_s = 0;
};

/**
 * Everything one run measures. End-to-end metrics come from untraced
 * work; per-layer metrics from the traced pass (or from counters that
 * cost nothing to read). `info` holds figures that are printed but
 * gated by nothing (tails, sample counts, provenance-like numbers).
 */
class Report
{
  public:
    void e2e(const std::string &name, double value, const std::string &unit);
    void layer(const std::string &name, double value, const std::string &unit);
    void info(const std::string &name, double value, const std::string &unit);

    /** Count @p n attempted operations, @p failed of which failed. */
    void attempt(uint64_t n, uint64_t failed);

    /** A correctness check failed: the run's result is not correct. */
    void fail(const std::string &what);

    /** A non-fatal observation, printed with the results. */
    void note(const std::string &what);

    /** Per-call spans; recorded only in traced runs. */
    std::vector<CallSpan> &spans() { return spans_; }

    const std::vector<Metric> &e2e_metrics() const { return e2e_; }
    const std::vector<Metric> &layer_metrics() const { return layer_; }
    const std::vector<Metric> &info_metrics() const { return info_; }
    const std::vector<std::string> &failures() const { return failures_; }
    const std::vector<std::string> &notes() const { return notes_; }
    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    bool correct() const { return failures_.empty(); }

  private:
    std::vector<Metric> e2e_, layer_, info_;
    std::vector<std::string> failures_, notes_;
    std::vector<CallSpan> spans_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/** Wall-clock seconds since the first call (the run's time origin). */
double now_s();

/** Median of @p v (reorders it); 0 when empty. */
double median(std::vector<double> &v);

/** Nearest-rank @p q-quantile of @p v (reorders it); 0 when empty. */
double quantile(std::vector<double> &v, double q);

/**
 * Times one call and, when @p spans is non-null, records it as a span.
 * Returns the call's wall time in seconds.
 */
template <typename F>
double
timed_call(std::vector<CallSpan> *spans, const char *name, F &&f)
{
    const double t0 = now_s();
    f();
    const double t1 = now_s();
    if (spans != nullptr)
        spans->push_back({name, t0, t1});
    return t1 - t0;
}

/** Steal share of all CPU time since the previous call, in percent
 *  (reads /proc/stat; the first call returns 0). */
double host_steal_pct_since_last();

/** Peak resident set of this process, in MB. */
double peak_rss_mb();

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
