/**
 * @file
 * Shared plumbing of the H2O-NAS benchmark: run options, the record one
 * measured pass produces, and small statistics helpers.
 *
 * A workload function runs ONE pass: untraced (tracer == nullptr) for
 * the end-to-end numbers, or traced for the per-layer numbers. Both
 * fill the same PassResult, so main.cc can put the two side by side and
 * assert that tracing never changes a deterministic output.
 */

#ifndef H2OBENCH_HARNESS_H
#define H2OBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace h2obench {

class Tracer;

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Command-line options of one benchmark invocation. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Chrome trace-event JSON written by the traced pass. */
    std::string traceOut;
    /** Full record (every metric, checks, fingerprint) as JSON. */
    std::string recordOut;
    /** Self-test hook: corrupt the benchmark's copy of one output
     *  ("served" or "nrmse") so the output checks must fail. */
    std::string perturb;
};

/** Set-ups measured back to back before each pass's measured window.
 *  Set-up takes microseconds to milliseconds of CPU, far less than the
 *  scheduling delays of a shared host, so each is measured in process
 *  CPU seconds and the median of many is reported. Each sample builds
 *  the system and tears it down again, so the CPU of the threads it
 *  starts is counted whole (a thread's CPU is final once it is
 *  joined). Set-ups inside the window (after a batch
 *  tore its server down) run under other conditions and are not
 *  sampled. */
constexpr int kSetupReps = 51;

/** Everything one measured pass reports. */
struct PassResult
{
    /** Set-up durations, one per fresh system built (median reported). */
    std::vector<double> setupSec;
    size_t attempted = 0;
    size_t failed = 0;
    /** CPU seconds one job (search, or perf-model build) and one step
     *  (search step, or perf-model SGD step) cost, each unit of work
     *  taking its fastest repeat in the pass (README.md, cpu_ms_per_job).
     *  CPU time leaves out the time other tenants of a shared host hold
     *  the cores, so these are the bounded end-to-end numbers. */
    double cpuSecPerJob = 0.0;
    double cpuSecPerStep = 0.0;
    /** Wall-clock figures, reported beside the bounded metrics; they
     *  move with the host's load. Completed jobs per second. */
    double jobsPerSec = 0.0;
    /** Search steps (or perf-model SGD steps) per second. */
    double stepsPerSec = 0.0;
    /** Job latency (due or submit time to Done), seconds: the median,
     *  and the tail — the highest percentile with at least ten samples
     *  above it — with that percentile and the sample count. */
    double latencyP50Sec = 0.0;
    double latencyTailSec = 0.0;
    double tailPercentile = 0.0;
    size_t latencySamples = 0;
    double peakRssMb = 0.0;
    /** Named values reported beside the contract metrics. */
    std::map<std::string, double> extra;
    /** Output-check failures; empty means every check passed. */
    std::vector<std::string> checkFailures;
    /** Digests of every deterministic output, keyed by job or build. */
    std::map<std::string, uint64_t> deterministic;
    /** Per-layer metrics (filled by the traced pass only). */
    std::map<std::string, double> layers;
};

/** Splitmix64: derives independent stream seeds from the run seed. */
uint64_t mixSeed(uint64_t seed, uint64_t salt);

/** Linear-interpolated percentile (p in [0, 1]) of unsorted values. */
double percentile(std::vector<double> values, double p);

double median(std::vector<double> values);

/**
 * The highest percentile that still has at least ten samples above it
 * (falls back to the maximum when fewer than eleven samples exist).
 * Returns {value, percentile in [0, 1]}.
 */
std::pair<double, double> tailLatency(std::vector<double> values);

/** Fill the latency fields of `out` from pooled samples. */
void setLatency(PassResult &out, const std::vector<double> &samples);

/** CPU seconds consumed by every thread of this process so far. */
double processCpuSeconds();

/** CPU seconds consumed by the calling thread so far. */
double threadCpuSeconds();

/** Peak resident set size of this process so far, MiB. */
double peakRssMb();

/** Usable hardware threads (>= 1). */
size_t hardwareThreads();

/** FNV-1a accumulator for deterministic-output digests. */
struct Digest
{
    uint64_t h = 1469598103934665603ULL;

    void bytes(const void *p, size_t n)
    {
        const auto *c = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= c[i];
            h *= 1099511628211ULL;
        }
    }
    void f64(double v) { bytes(&v, sizeof v); }
    void u64(uint64_t v) { bytes(&v, sizeof v); }
};

/** Bitwise equality of two doubles (distinguishes -0.0, NaN payloads). */
inline bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Host and build identity stamped on every record. */
std::map<std::string, std::string> fingerprint();

} // namespace h2obench

#endif // H2OBENCH_HARNESS_H
