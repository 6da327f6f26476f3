/**
 * @file
 * Compiler layer: the probe compiler over the program corpus.
 *
 * One corpus pass places TQ probes in every program (run_tq_pass),
 * proves the placement (verify_module) and refines it
 * (optimize_placement). Passes repeat for about a second and
 * `compile_s` is the median pass. Every pass places identically, so
 * after the first one each refined placement is proven again from
 * scratch and must hold a bound no looser than the one-shot
 * placement's. `probe_ovh_pct` is the executor's overhead of
 * the refined placement at a 2 us quantum (measure_tq_optimized), with
 * the run's seed driving the executor's draws.
 */
#include "compiler/passes.h"
#include "compiler/report.h"
#include "compiler/verifier.h"
#include "layers.h"
#include "progs/programs.h"
#include "sim/sweep.h"

namespace perfbench {

using namespace tq;
using namespace tq::compiler;

std::vector<Module>
build_corpus()
{
    std::vector<Module> corpus;
    for (const auto &name : progs::program_names())
        corpus.push_back(progs::make_program(name));
    return corpus;
}

namespace {

/** Per-pass sums over the corpus. */
struct PassTimes
{
    double place_s = 0, verify_s = 0, optimize_s = 0;
};

constexpr double kPassBudgetS = 1.0; ///< repeat corpus passes this long
constexpr int kMinPasses = 3;

} // namespace

void
run_compiler_layer(const RunOptions &opt, Report &rep)
{
    std::vector<CallSpan> *spans = opt.trace ? &rep.spans() : nullptr;
    const std::vector<Module> corpus = build_corpus();
    PassConfig pcfg;
    pcfg.bound = 400;

    std::vector<double> pass_s, place_ms, verify_ms, optimize_ms;
    int probes_tq = 0, probes_opt = 0, rolled_back = 0;
    uint64_t failed = 0;
    const double budget_end = now_s() + kPassBudgetS;
    for (int pass = 0; pass < kMinPasses || now_s() < budget_end; ++pass) {
        PassTimes t;
        std::vector<Module> placed = corpus;
        std::vector<VerifyResult> initial(corpus.size());
        std::vector<OptimizerResult> refined(corpus.size());
        const double t0 = now_s();
        for (size_t i = 0; i < placed.size(); ++i) {
            t.place_s += timed_call(spans, "compiler.run_tq_pass",
                                    [&] { run_tq_pass(placed[i], pcfg); });
            t.verify_s += timed_call(spans, "compiler.verify_module", [&] {
                initial[i] = verify_module(placed[i]);
            });
            t.optimize_s +=
                timed_call(spans, "compiler.optimize_placement", [&] {
                    refined[i] = optimize_placement(placed[i]);
                });
        }
        pass_s.push_back(now_s() - t0);
        place_ms.push_back(t.place_s * 1e3);
        verify_ms.push_back(t.verify_s * 1e3);
        optimize_ms.push_back(t.optimize_s * 1e3);

        rep.attempt(placed.size(), 0);
        if (pass > 0)
            continue; // passes are deterministic: check the first one

        // Outside the timed pass: every refined placement re-proves.
        for (size_t i = 0; i < placed.size(); ++i) {
            const VerifyResult again = verify_module(placed[i]);
            const bool ok = initial[i].ok && refined[i].ok && again.ok &&
                            again.max_stretch <= initial[i].max_stretch;
            if (!ok) {
                ++failed;
                rep.fail("compiler: " + corpus[i].name +
                         ": the refined placement does not re-prove its "
                         "bound");
            }
            probes_tq += refined[i].initial_probes;
            probes_opt += refined[i].final_probes;
            rolled_back += refined[i].rolled_back;
        }
    }
    rep.attempt(0, failed);

    ExecConfig ecfg;
    ecfg.quantum_cycles = 2.0 * 1e3 * ecfg.cost.cycles_per_ns;
    ecfg.seed = sim::derive_seed(opt.seed, 3);
    double overhead_sum = 0;
    for (const Module &m : corpus) {
        TechniqueMetrics tm;
        timed_call(spans, "compiler.measure_tq_optimized", [&] {
            tm = measure_tq_optimized(m, pcfg, ecfg);
        });
        if (!tm.verified)
            rep.fail("compiler: " + m.name +
                     ": measure_tq_optimized lost the proof");
        overhead_sum += tm.overhead;
    }
    rep.attempt(corpus.size(), 0);

    rep.e2e("probe_ovh_pct",
            100.0 * overhead_sum / static_cast<double>(corpus.size()), "%");
    rep.e2e("compile_s", median(pass_s), "s");
    rep.layer("compiler.place_ms", median(place_ms), "ms");
    rep.layer("compiler.verify_ms", median(verify_ms), "ms");
    rep.layer("compiler.optimize_ms", median(optimize_ms), "ms");
    rep.layer("compiler.probes_tq", probes_tq, "count");
    rep.layer("compiler.probes_opt", probes_opt, "count");
    rep.layer("compiler.opt_rolled_back", rolled_back, "count");
    rep.info("compiler.passes", static_cast<double>(pass_s.size()), "count");
}

} // namespace perfbench
