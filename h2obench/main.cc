/**
 * @file
 * Entry point of the H2O-NAS benchmark binary (normally launched by
 * run.py, which builds it first).
 *
 *   h2obench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--trace-out <file>] [--record-out <file>]
 *            [--perturb served|nrmse]
 *
 * --trace 0 runs one untraced pass and prints the end-to-end metrics.
 * --trace 1 runs the untraced pass, then a traced pass of the same seed,
 * asserts their deterministic outputs are identical, and prints the
 * per-layer metrics. The last line of standard output is always the
 * result object; the human-readable report goes to standard error.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>

#include "harness.h"
#include "trace.h"
#include "workloads.h"

using namespace h2obench;

namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
};

// Keep in step with BENCHMARK.json.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"cpu_ms_per_job", "ms"},
    {"cpu_us_per_step", "us"},
    {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"serve.round_ms.p50", "ms"},
    {"serve.round_ms.p99", "ms"},
    {"serve.rounds", "count"},
    {"serve.round_self_ms.p50", "ms"},
    {"serve.admit_ms.p50", "ms"},
    {"serve.admit_ms.p99", "ms"},
    {"serve.queue_wait_s.p50", "s"},
    {"serve.queue_wait_s.p99", "s"},
    {"serve.generator_lag_ms.p99", "ms"},
    {"serve.jobs_done", "count"},
    {"serve.jobs_failed", "count"},
    {"search.step_ms.surrogate.p50", "ms"},
    {"search.step_ms.surrogate.p99", "ms"},
    {"search.step_ms.supernet.p50", "ms"},
    {"search.step_ms.supernet.p99", "ms"},
    {"search.step_ms.tunas.p50", "ms"},
    {"search.step_ms.tunas.p99", "ms"},
    {"search.steps", "count"},
    {"controller.sample_us", "us"},
    {"controller.update_us", "us"},
    {"sim.cache.lookups", "count"},
    {"sim.cache.hits", "count"},
    {"sim.cache.misses", "count"},
    {"sim.cache.evictions", "count"},
    {"sim.cache.hit_rate", "ratio"},
    {"sim.fill_s", "s"},
    {"arch.lower_us", "us"},
    {"sim.simulate_us", "us"},
    {"perfmodel.pretrain_s", "s"},
    {"perfmodel.train_s", "s"},
    {"perfmodel.train_samples_per_s", "1/s"},
    {"perfmodel.finetune_ms", "ms"},
    {"perfmodel.evaluate_ms", "ms"},
    {"nn.train_gflops", "GFLOP/s"},
    {"nn.tensor_allocs", "count"},
    {"supernet.eval_rows_per_s", "1/s"},
    {"supernet.dedup_ratio", "ratio"},
    {"exec.frames", "count"},
    {"exec.bytes_per_frame", "B"},
    {"exec.respawns", "count"},
    {"exec.overhead_ms_per_step", "ms"},
    {"trace.overhead_pct", "%"},
};

using WorkloadFn = std::function<PassResult(const Options &, Tracer *)>;

const std::map<std::string, WorkloadFn> &
workloads()
{
    static const std::map<std::string, WorkloadFn> table = {
        {"surrogate_burst", runSurrogateBurst},
        {"supernet_stream", runSupernetStream},
        {"perfmodel_build", runPerfmodelBuild},
        {"forked_shards", runForkedShards},
    };
    return table;
}

[[noreturn]] void
usage(const std::string &error)
{
    std::cerr << "h2obench: " << error << "\n"
              << "usage: h2obench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>] "
                 "[--record-out <file>] [--perturb served|nrmse]\n"
              << "workloads:";
    for (const auto &[name, fn] : workloads())
        std::cerr << " " << name;
    std::cerr << "\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + key);
        std::string val = argv[++i];
        try {
            if (key == "--workload") {
                o.workload = val;
                have_workload = true;
            } else if (key == "--seed") {
                o.seed = std::stoull(val);
            } else if (key == "--seconds") {
                o.seconds = std::stod(val);
            } else if (key == "--trace") {
                if (val != "0" && val != "1")
                    usage("--trace takes 0 or 1");
                o.trace = val == "1";
            } else if (key == "--trace-out") {
                o.traceOut = val;
            } else if (key == "--record-out") {
                o.recordOut = val;
            } else if (key == "--perturb") {
                if (val != "served" && val != "nrmse")
                    usage("--perturb takes served or nrmse");
                o.perturb = val;
            } else {
                usage("unknown option " + key);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + key + ": " + val);
        }
    }
    if (!have_workload || !workloads().count(o.workload))
        usage("unknown or missing --workload");
    if (!(o.seconds > 0.0 && o.seconds <= 600.0))
        usage("--seconds must be in (0, 600]");
    return o;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

/** The contract's end-to-end metrics of one pass. */
std::map<std::string, double>
endToEnd(const PassResult &r)
{
    return {{"setup_s", median(r.setupSec)},
            {"cpu_ms_per_job", r.cpuSecPerJob * 1e3},
            {"cpu_us_per_step", r.cpuSecPerStep * 1e6},
            {"peak_rss_mb", r.peakRssMb}};
}

/** Wall-clock figures of one pass: reported and recorded, not bounded,
 *  because they move with the load other tenants put on the host. */
std::map<std::string, double>
wallClock(const PassResult &r)
{
    return {{"jobs_per_s", r.jobsPerSec},
            {"steps_per_s", r.stepsPerSec},
            {"job_latency_p50_s", r.latencyP50Sec},
            {"job_latency_tail_s", r.latencyTailSec}};
}

std::string
metricsObject(const MetricDef *defs, size_t n,
              const std::map<std::string, double> &values)
{
    std::string out = "{";
    for (size_t i = 0; i < n; ++i) {
        auto it = values.find(defs[i].name);
        double v = it == values.end() ? 0.0 : it->second;
        out += (i ? ", " : "") + quoted(defs[i].name) + ": {\"value\": " +
               num(v) + ", \"unit\": " + quoted(defs[i].unit) + "}";
    }
    return out + "}";
}

std::string
mapObject(const std::map<std::string, double> &m)
{
    std::string out = "{";
    for (const auto &[k, v] : m)
        out += (out.size() > 1 ? ", " : "") + quoted(k) + ": " + num(v);
    return out + "}";
}

void
report(const char *label, const PassResult &r)
{
    auto e2e = endToEnd(r);
    std::cerr << label << ": attempted " << r.attempted << ", failed "
              << r.failed << ", latency samples " << r.latencySamples
              << " (tail = p" << num(r.tailPercentile * 100) << ")\n";
    for (const MetricDef &m : kEndToEnd)
        std::cerr << "  " << m.name << " = " << num(e2e[m.name]) << " "
                  << m.unit << "\n";
    for (const auto &[k, v] : wallClock(r))
        std::cerr << "  (wall clock: " << k << " = " << num(v) << ")\n";
    std::cerr << "  (setup samples " << r.setupSec.size() << ", p25 "
              << num(percentile(r.setupSec, 0.25)) << " s, p75 "
              << num(percentile(r.setupSec, 0.75)) << " s)\n";
    for (const auto &[k, v] : r.extra)
        std::cerr << "  (" << k << " = " << num(v) << ")\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    const WorkloadFn &run = workloads().at(opts.workload);

    PassResult base = run(opts, nullptr);
    std::vector<std::string> failures = base.checkFailures;
    report("untraced", base);

    PassResult traced;
    std::map<std::string, double> layers;
    if (opts.trace) {
        Tracer tracer;
        traced = run(opts, &tracer);
        report("traced", traced);
        // Side by side: the difference is the tracing overhead.
        auto plain = endToEnd(base), with_spans = endToEnd(traced);
        std::cerr << "end-to-end, untraced vs traced:\n";
        for (const MetricDef &m : kEndToEnd)
            std::cerr << "  " << m.name << ": " << num(plain[m.name])
                      << " vs " << num(with_spans[m.name]) << " " << m.unit
                      << "\n";
        for (const auto &f : traced.checkFailures)
            failures.push_back("traced pass: " + f);
        // Spans must never change results: every deterministic output
        // both passes produced (time-bounded passes may run different
        // numbers of jobs) must match bit for bit.
        size_t common = 0;
        for (const auto &[key, h] : traced.deterministic) {
            auto it = base.deterministic.find(key);
            if (it == base.deterministic.end())
                continue;
            ++common;
            if (it->second != h)
                failures.push_back("traced output differs from untraced: " +
                                   key);
        }
        if (common == 0)
            failures.push_back("traced and untraced passes share no "
                               "deterministic output to compare");
        layers = traced.layers;
        layers["trace.overhead_pct"] =
            (traced.cpuSecPerJob - base.cpuSecPerJob) / base.cpuSecPerJob *
            100.0;
        if (!opts.traceOut.empty() && !tracer.writeChromeTrace(opts.traceOut))
            failures.push_back("cannot write trace file " + opts.traceOut);

        std::vector<std::string> unexercised;
        for (const MetricDef &m : kPerLayer)
            if (!layers.count(m.name))
                unexercised.push_back(m.name);
        std::cerr << "per-layer metrics (traced pass):\n";
        for (const MetricDef &m : kPerLayer)
            if (layers.count(m.name))
                std::cerr << "  " << m.name << " = " << num(layers[m.name])
                          << " " << m.unit << "\n";
        std::cerr << "not exercised by " << opts.workload
                  << " (reported as 0):";
        for (const auto &n : unexercised)
            std::cerr << " " << n;
        std::cerr << "\n";
    }

    // Every reported value must be a finite number.
    auto e2e = endToEnd(base);
    for (const auto &[k, v] : e2e)
        if (!std::isfinite(v) || v <= 0.0)
            failures.push_back("end-to-end metric " + k +
                               " is not a positive finite number");
    for (auto &[k, v] : layers) {
        if (!std::isfinite(v)) {
            failures.push_back("per-layer metric " + k + " is not finite");
            v = 0.0;
        }
    }
    for (auto &[k, v] : e2e)
        if (!std::isfinite(v))
            v = 0.0;

    const bool correct = failures.empty();
    for (const auto &f : failures)
        std::cerr << "CHECK FAILED: " << f << "\n";
    std::cerr << (correct ? "all output checks passed\n"
                          : "output checks FAILED\n");

    const size_t attempted =
        std::max<size_t>(1, base.attempted + traced.attempted);
    const size_t failed = base.failed + traced.failed;
    std::string metrics =
        opts.trace
            ? metricsObject(kPerLayer, std::size(kPerLayer), layers)
            : metricsObject(kEndToEnd, std::size(kEndToEnd), e2e);

    if (!opts.recordOut.empty()) {
        std::ofstream rec(opts.recordOut);
        std::map<std::string, double> extra = base.extra;
        extra["failed_frac"] =
            base.attempted ? double(base.failed) / double(base.attempted)
                           : 1.0;
        extra["latency_samples"] = double(base.latencySamples);
        extra["latency_tail_percentile"] = base.tailPercentile;
        std::string fp = "{";
        for (const auto &[k, v] : fingerprint())
            fp += (fp.size() > 1 ? ", " : "") + quoted(k) + ": " + quoted(v);
        fp += "}";
        std::string fails = "[";
        for (const auto &f : failures)
            fails += (fails.size() > 1 ? ", " : "") + quoted(f);
        fails += "]";
        rec << "{\"workload\": " << quoted(opts.workload)
            << ", \"seed\": " << opts.seed
            << ", \"seconds\": " << num(opts.seconds)
            << ", \"trace\": " << (opts.trace ? 1 : 0)
            << ", \"fingerprint\": " << fp
            << ", \"correct\": " << (correct ? "true" : "false")
            << ", \"check_failures\": " << fails
            << ", \"end_to_end\": " << mapObject(e2e)
            << ", \"wall_clock\": " << mapObject(wallClock(base))
            << ", \"extra\": " << mapObject(extra);
        if (opts.trace)
            rec << ", \"end_to_end_traced\": " << mapObject(endToEnd(traced))
                << ", \"wall_clock_traced\": "
                << mapObject(wallClock(traced))
                << ", \"per_layer\": " << mapObject(layers);
        rec << "}\n";
    }

    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": "
              << failed << ", \"metrics\": " << metrics << "}" << std::endl;
    return correct ? 0 : 1;
}
