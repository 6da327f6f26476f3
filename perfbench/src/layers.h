/**
 * @file
 * The benchmark's three measured stacks. Each one drives the repository
 * through its public functions only and writes its figures into a
 * Report.
 */
#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compiler/ir.h"
#include "common/dist.h"
#include "report.h"

namespace perfbench {

/** The runtime workloads: a job distribution and its open-loop rates. */
struct RtWorkload
{
    std::unique_ptr<tq::ServiceDist> dist;
    double light_mrps = 0; ///< open-loop rate of the light phase
    double mid_mrps = 0;   ///< open-loop rate of the mid phase
};

/** Builds the named workload; null for an unknown name. */
std::unique_ptr<RtWorkload> make_workload(const std::string &name);

/** Settings shared by every layer of one run. */
struct RunOptions
{
    uint64_t seed = 1;
    double seconds = 10; ///< measured time of one run
    bool trace = false;  ///< add the traced pass and per-call spans
    /** Self-test hook: the handler answers one request wrongly. */
    bool inject_wrong_result = false;
};

/**
 * One traced request as written to the span file: a fixed 96-byte
 * little-endian record. bounds[i]..bounds[i+1] is child span i, in the
 * order net.lag, net.submit, rx, dispatch, worker.queue, handler,
 * worker.complete, tx; bounds[0]..bounds[8] is the request span. All
 * stamps are TSC cycles.
 */
struct RequestSpans
{
    uint32_t phase = 0; ///< 0 light, 1 mid, 2 saturated
    uint32_t yields = 0;    ///< probe yields on the worker during the handler
    uint64_t id = 0;
    uint64_t bounds[9] = {};
    uint32_t demand_ns = 0;
    uint32_t pad = 0;
};
static_assert(sizeof(RequestSpans) == 96);

/** What the runtime layer hands to the rest of the run. */
struct RtSummary
{
    double capacity_mrps = 0;       ///< untraced saturated phase
    std::vector<RequestSpans> spans; ///< traced run only
};

/** Write @p rt's request spans as raw RequestSpans records. */
void write_request_spans(const RtSummary &rt, const std::string &path);

/**
 * The set-up one run repeats to time it: runtime construction and
 * start, and the probe-compiler corpus build. Returns the median of
 * @p reps repetitions in seconds.
 */
double measure_setup(int reps);

/** Real runtime: light, mid and saturated phases (and the traced pass). */
RtSummary run_runtime_layer(const RtWorkload &w, const RunOptions &opt,
                            Report &rep);

/** Two-level simulator grid, run twice in process. */
void run_sim_layer(const RtWorkload &w, const RtSummary &rt,
                   const RunOptions &opt, Report &rep);

/** The 27-program probe-compiler corpus. */
std::vector<tq::compiler::Module> build_corpus();

/** Place, verify and optimize the corpus; executor overhead. */
void run_compiler_layer(const RunOptions &opt, Report &rep);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
