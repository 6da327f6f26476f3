/**
 * @file
 * tq_perfbench: one run of one workload of the layered benchmark.
 *
 *   tq_perfbench --workload rt_exp1|rt_bimodal --seed N --seconds S
 *                --trace 0|1 --out-dir DIR [--git-sha SHA]
 *                [--git-dirty 0|1] [--inject-wrong-result]
 *
 * A run times the set-up, then measures the runtime, simulator and
 * compiler layers in turn, each alone on the machine. It prints every
 * figure as "metric <name> <value> <unit>", writes the full record with
 * its provenance to DIR/results/, and ends with one JSON line:
 * {"correct", "attempted", "failed", "metrics"} where metrics are the
 * end-to-end ones (--trace 0) or the per-layer ones (--trace 1). It
 * exits 1 when a correctness check fails and 2 on bad arguments.
 */
#include <sys/stat.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common/cycles.h"
#include "layers.h"

namespace {

using namespace perfbench;

constexpr int kSetupReps = 9;

struct Args
{
    std::string workload;
    std::string out_dir; ///< results and span files go under out_dir/results
    RunOptions opt;
    std::string git_sha = "unknown";
    std::string git_dirty = "unknown";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "tq_perfbench: %s\nusage: tq_perfbench --workload "
                 "rt_exp1|rt_bimodal --seed N --seconds S --trace 0|1 "
                 "--out-dir DIR [--git-sha SHA] [--git-dirty 0|1] "
                 "[--inject-wrong-result]\n",
                 why);
    std::exit(2);
}

Args
parse(int argc, char **argv)
{
    Args a;
    bool have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--inject-wrong-result") {
            a.opt.inject_wrong_result = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const std::string v = argv[++i];
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.opt.seed = std::strtoull(v.c_str(), nullptr, 10);
            have_seed = true;
        } else if (k == "--seconds") {
            a.opt.seconds = std::atof(v.c_str());
            have_seconds = true;
        } else if (k == "--trace") {
            a.opt.trace = v == "1";
        } else if (k == "--out-dir") {
            a.out_dir = v;
        } else if (k == "--git-sha") {
            a.git_sha = v;
        } else if (k == "--git-dirty") {
            a.git_dirty = v;
        } else {
            usage(("unknown option " + k).c_str());
        }
    }
    if (a.workload.empty() || !have_seed || !have_seconds ||
        a.out_dir.empty())
        usage("--workload, --seed, --seconds and --out-dir are required");
    if (!(a.opt.seconds > 0 && a.opt.seconds <= 600))
        usage("--seconds must be in (0, 600]");
    return a;
}

std::string
json_str(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
metrics_json(const std::vector<Metric> &ms)
{
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < ms.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
        out += (i ? ", " : "") + json_str(ms[i].name) + ": {\"value\": " +
               buf + ", \"unit\": " + json_str(ms[i].unit) + "}";
    }
    return out + "}";
}

std::string
cpu_model()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

std::string
provenance_json(const Args &a, double steal_pct)
{
#if defined(TQ_TELEMETRY_ENABLED)
    const char *telemetry = "ON";
#else
    const char *telemetry = "OFF";
#endif
    char nums[160];
    std::snprintf(nums, sizeof nums,
                  "\"nproc\": %u, \"tsc_ghz\": %.6f, \"host_steal_pct\": %.3f, "
                  "\"seed\": %llu, \"seconds\": %g, \"trace\": %d",
                  std::thread::hardware_concurrency(), tq::cycles_per_ns(),
                  steal_pct, static_cast<unsigned long long>(a.opt.seed),
                  a.opt.seconds, a.opt.trace ? 1 : 0);
    return "{\"git_sha\": " + json_str(a.git_sha) +
           ", \"git_dirty\": " + json_str(a.git_dirty) +
           ", \"build_type\": " + json_str(PERFBENCH_BUILD_TYPE) +
           ", \"tq_telemetry\": " + json_str(telemetry) +
           ", \"cpu_model\": " + json_str(cpu_model()) +
           ", \"workload\": " + json_str(a.workload) + ", " + nums + "}";
}

void
print_metrics(const char *kind, const std::vector<Metric> &ms)
{
    for (const Metric &m : ms)
        std::printf("%s %s %.6g %s\n", kind, m.name.c_str(), m.value,
                    m.unit.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parse(argc, argv);
    const auto w = make_workload(args.workload);
    if (!w)
        usage(("unknown workload " + args.workload).c_str());
    const RunOptions &opt = args.opt;
    ::mkdir(args.out_dir.c_str(), 0755);
    const std::string results_dir = args.out_dir + "/results";
    ::mkdir(results_dir.c_str(), 0755);

#if defined(__GLIBC__)
    // Keep freed memory in the heap instead of returning it to the
    // kernel: the set-up repetitions and the phases then reuse pages
    // that are already mapped. Otherwise every repetition pays the
    // hypervisor's page-fault service for ~40 MB of rings, and that
    // cost, not the runtime's construction work, set setup_s (it
    // moved by half between sets of runs on a busy host).
    mallopt(M_MMAP_THRESHOLD, 1 << 30);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
    now_s();
    host_steal_pct_since_last();
    tq::cycles_per_ns(); // calibrate the TSC before anything is timed

    Report rep;
    rep.e2e("setup_s", measure_setup(kSetupReps), "s");
    const RtSummary rt = run_runtime_layer(*w, opt, rep);
    run_sim_layer(*w, rt, opt, rep);
    run_compiler_layer(opt, rep);
    rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    const double steal = host_steal_pct_since_last();
    rep.layer("host.steal_pct", steal, "%");

    // Spans stay in memory until here, after everything is measured.
    const std::string stem = results_dir + "/" + args.workload + "-seed" +
                             std::to_string(opt.seed) + "-trace" +
                             (opt.trace ? "1" : "0");
    if (opt.trace) {
        write_request_spans(rt, stem + ".requests.bin");
        std::ofstream calls(stem + ".calls.json");
        calls << "[";
        for (size_t i = 0; i < rep.spans().size(); ++i) {
            const CallSpan &s = rep.spans()[i];
            char buf[96];
            std::snprintf(buf, sizeof buf, ", \"start_s\": %.9f, \"end_s\": %.9f}",
                          s.start_s, s.end_s);
            calls << (i ? ",\n " : "") << "{\"name\": " << json_str(s.name)
                  << buf;
        }
        calls << "]\n";
    }

    const std::string prov = provenance_json(args, steal);
    std::printf("provenance %s\n", prov.c_str());
    print_metrics("metric", rep.e2e_metrics());
    print_metrics("layer", rep.layer_metrics());
    print_metrics("info", rep.info_metrics());
    for (const std::string &n : rep.notes())
        std::printf("note %s\n", n.c_str());
    for (const std::string &f : rep.failures())
        std::printf("FAIL %s\n", f.c_str());

    const std::vector<Metric> &shown =
        opt.trace ? rep.layer_metrics() : rep.e2e_metrics();
    const std::string result =
        std::string("{\"correct\": ") + (rep.correct() ? "true" : "false") +
        ", \"attempted\": " + std::to_string(rep.attempted()) +
        ", \"failed\": " + std::to_string(rep.failed()) +
        ", \"metrics\": " + metrics_json(shown) + "}";
    {
        std::ofstream full(stem + ".json");
        full << "{\"provenance\": " << prov
             << ", \"end_to_end\": " << metrics_json(rep.e2e_metrics())
             << ", \"per_layer\": " << metrics_json(rep.layer_metrics())
             << ", \"info\": " << metrics_json(rep.info_metrics())
             << ", \"result\": " << result << "}\n";
    }
    std::printf("%s\n", result.c_str());
    return rep.correct() ? 0 : 1;
}
