#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <ctime>
#include <fstream>
#include <thread>

namespace h2obench {

uint64_t
mixSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double rank = p * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

std::pair<double, double>
tailLatency(std::vector<double> values)
{
    if (values.empty())
        return {0.0, 0.0};
    const size_t n = values.size();
    if (n <= 10)
        return {*std::max_element(values.begin(), values.end()), 1.0};
    // Nearest-rank: the value at rank n - 10 (1-based) has exactly ten
    // samples above it.
    std::sort(values.begin(), values.end());
    size_t idx = n - 11;
    return {values[idx], static_cast<double>(idx + 1) / double(n)};
}

void
setLatency(PassResult &out, const std::vector<double> &samples)
{
    auto [tail, pct] = tailLatency(samples);
    out.latencyP50Sec = median(samples);
    out.latencyTailSec = tail;
    out.tailPercentile = pct;
    out.latencySamples = samples.size();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    struct rusage ru
    {
    };
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

size_t
hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

std::map<std::string, std::string>
fingerprint()
{
    std::string cpu = "unknown";
    std::ifstream info("/proc/cpuinfo");
    for (std::string line; std::getline(info, line);) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos)
                cpu = line.substr(line.find_first_not_of(' ', colon + 1));
            break;
        }
    }
    return {{"nproc", std::to_string(hardwareThreads())},
            {"cpu_model", cpu},
            {"compiler", H2OBENCH_COMPILER},
            {"build_type", H2OBENCH_BUILD_TYPE},
            {"h2o_native", H2OBENCH_NATIVE ? "ON" : "OFF"}};
}

} // namespace h2obench
