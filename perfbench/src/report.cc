#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>

namespace perfbench {

void
Report::e2e(const std::string &name, double value, const std::string &unit)
{
    e2e_.push_back({name, value, unit});
}

void
Report::layer(const std::string &name, double value, const std::string &unit)
{
    layer_.push_back({name, value, unit});
}

void
Report::info(const std::string &name, double value, const std::string &unit)
{
    info_.push_back({name, value, unit});
}

void
Report::attempt(uint64_t n, uint64_t failed)
{
    attempted_ += n;
    failed_ += failed;
}

void
Report::fail(const std::string &what)
{
    failures_.push_back(what);
}

void
Report::note(const std::string &what)
{
    notes_.push_back(what);
}

double
now_s()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point origin = clock::now();
    return std::chrono::duration<double>(clock::now() - origin).count();
}

double
quantile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0;
    size_t k = static_cast<size_t>(q * static_cast<double>(v.size()));
    k = std::min(k, v.size() - 1);
    std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
    return v[k];
}

double
median(std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
host_steal_pct_since_last()
{
    static uint64_t last_total = 0, last_steal = 0;
    std::ifstream in("/proc/stat");
    std::string line;
    if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0)
        return 0;
    std::istringstream fields(line.substr(4));
    uint64_t v = 0, total = 0, steal = 0;
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already folded into user/nice.
    for (int i = 0; i < 8 && fields >> v; ++i) {
        total += v;
        if (i == 7)
            steal = v;
    }
    const bool first = last_total == 0;
    const uint64_t dt = total - last_total, ds = steal - last_steal;
    last_total = total;
    last_steal = steal;
    if (first || dt == 0)
        return 0;
    return 100.0 * static_cast<double>(ds) / static_cast<double>(dt);
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

} // namespace perfbench
