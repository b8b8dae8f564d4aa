/**
 * @file
 * palermo_perfbench: runs one benchmark workload for a host-time budget
 * and prints its metrics as one JSON document on stdout.
 *
 *   palermo_perfbench --workload NAME --seed N --seconds S [--trace]
 *                     [--tiny]
 *
 * Untraced, each iteration is timed end to end and the document holds
 * the end-to-end metrics. With --trace, each iteration runs untraced
 * and then traced: the traced run must reproduce the untraced run's
 * simulated counts exactly, and the document holds the per-layer host
 * times and counts plus the tracing overhead. --tiny shrinks every
 * workload for the self-test. perfbench/run.py builds this binary and
 * turns its document into the benchmark's result line.
 */

#include "common/alloc_count.hh" // Counts every heap allocation.

#include <algorithm>
#include <cstdio>
#include <string>

#include <sys/resource.h>

#include "common/log.hh"
#include "sim/metrics_json.hh"
#include "sim/run_cli.hh"
#include "sim/sweep.hh"
#include "workloads.hh"

namespace perfbench {

unsigned long long
heapAllocations()
{
    return palermo::heapAllocationCount();
}

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] + (pos - static_cast<double>(lo))
        * (samples[hi] - samples[lo]);
}

} // namespace perfbench

namespace {

using namespace perfbench;
using palermo::ProtocolKind;

// Full-size workloads. Why each exists is recorded in BENCHMARK.json
// and perfbench/README.md.
const SimWorkload kRing{ProtocolKind::RingOram, 22, 6000, 0.25};
const SimWorkload kPalermo{ProtocolKind::Palermo, 16, 8000, 0.25};
// Rungs sized for this two-tenant mix at 2^18 blocks: the overload
// rung saturates at about 3.0 requests per kilocycle, and p99 starts to
// climb steeply (and to swing from seed to seed) above about 2.2.
const KvWorkload kKv{18,
                     {1.4, 500'000},
                     {{{1.4, 1'500'000}, {2.0, 2'400'000}, {3.5, 1'000'000}}},
                     10'000.0};

// Self-test sizes: same shapes, a few thousand requests each.
const SimWorkload kRingTiny{ProtocolKind::RingOram, 12, 400, 0.5};
const SimWorkload kPalermoTiny{ProtocolKind::Palermo, 12, 1200, 0.25};
const KvWorkload kKvTiny{12,
                         {1.5, 40'000},
                         {{{1.5, 200'000}, {2.5, 160'000}, {3.5, 100'000}}},
                         10'000.0};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    std::uint64_t seconds = 10;
    bool trace = false;
    bool tiny = false;
};

bool
parseOptions(int argc, const char *const *argv, Options *options,
             std::string *error)
{
    palermo::ArgCursor cursor(argc, argv);
    while (cursor.advance()) {
        const std::string name = cursor.name();
        std::string value;
        if (name == "--workload") {
            if (!cursor.value(&options->workload)) {
                *error = "--workload needs a name";
                return false;
            }
        } else if (name == "--seed") {
            if (!cursor.value(&value)
                || !palermo::parseUnsigned(value, &options->seed)) {
                *error = "--seed needs an unsigned integer";
                return false;
            }
        } else if (name == "--seconds") {
            if (!cursor.value(&value)
                || !palermo::parseUnsigned(value, &options->seconds)) {
                *error = "--seconds needs an unsigned integer";
                return false;
            }
        } else if (name == "--trace") {
            options->trace = true;
        } else if (name == "--tiny") {
            options->tiny = true;
        } else {
            *error = "unknown flag '" + name + "'";
            return false;
        }
    }
    if (options->workload != "ring-b22-setup"
        && options->workload != "palermo-b16-steady"
        && options->workload != "kv-openloop-mix") {
        *error = "unknown or missing --workload '" + options->workload + "'";
        return false;
    }
    return true;
}

/** Runs one iteration of the named workload. */
Iteration
runOnce(const Options &options, bool traced, HostClock &clock)
{
    if (options.workload == "ring-b22-setup")
        return runSimIteration(options.tiny ? kRingTiny : kRing,
                               options.seed, traced, clock);
    if (options.workload == "palermo-b16-steady")
        return runSimIteration(options.tiny ? kPalermoTiny : kPalermo,
                               options.seed, traced, clock);
    return runKvIteration(options.tiny ? kKvTiny : kKv, options.seed,
                          traced, clock);
}

/**
 * Untraced iteration on a sampling HostClock. Its end-to-end host
 * times are scaled to the reference host speed; the uncorrected values
 * are kept under "uncorrected." names.
 */
Iteration
runCorrected(const Options &options)
{
    HostClock clock(true);
    Iteration it = runOnce(options, false, clock);
    std::map<std::string, double> &host = it.host;
    for (const std::string key : {"wall_s", "setup_s", "steady_req_per_s"})
        host["uncorrected." + key] = host[key];
    const double scale = clock.scale();
    host["wall_s"] *= scale;
    host["setup_s"] *= scale;
    host["steady_req_per_s"] /= scale;
    host["host.slowdown"] = 1.0 / scale;
    return it;
}

/**
 * Untraced then traced run of one iteration. The result keeps the
 * traced run's spans, the untraced run's simulated metrics, and the
 * tracing overhead.
 */
Iteration
runTracedPair(const Options &options)
{
    HostClock plain_clock(false);
    HostClock traced_clock(false);
    Iteration plain = runOnce(options, false, plain_clock);
    Iteration traced = runOnce(options, true, traced_clock);

    Iteration pair;
    pair.attempted = plain.attempted + traced.attempted;
    pair.failed = plain.failed + traced.failed;
    pair.problems = plain.problems;
    for (const std::string &problem : traced.problems)
        pair.problems.push_back("traced: " + problem);
    for (const std::string &key : equalityKeys()) {
        const auto a = plain.sim.find(key);
        const auto b = traced.sim.find(key);
        if (a == plain.sim.end() || b == traced.sim.end()
            || a->second != b->second)
            pair.problems.push_back(
                "traced run differs from untraced on " + key + ": "
                + (a == plain.sim.end() ? "missing"
                                        : palermo::jsonNumber(a->second))
                + " vs "
                + (b == traced.sim.end() ? "missing"
                                         : palermo::jsonNumber(b->second)));
    }
    pair.sim = plain.sim;
    pair.sim.insert(traced.sim.begin(), traced.sim.end());
    pair.host = traced.host;
    pair.host["sim.allocs_per_req"] = plain.host["sim.allocs_per_req"];
    pair.host["trace_overhead_frac"] =
        traced.host["wall_s"] / plain.host["wall_s"] - 1.0;
    pair.notes = plain.notes;
    return pair;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Peak RSS of this process so far, in MiB (Linux ru_maxrss is KiB). */
double
peakRssMb()
{
    struct rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace

int
main(int argc, char **argv)
{
    palermo::setVerbose(false);

    Options options;
    std::string error;
    if (!parseOptions(argc - 1, argv + 1, &options, &error)) {
        std::fprintf(stderr, "palermo_perfbench: %s\n", error.c_str());
        return 2;
    }

    // Several iterations even on a short budget, so every host value
    // (setup_s included) is a median.
    const std::size_t min_iterations = options.trace ? 2 : 3;
    const Clock::time_point start = Clock::now();
    std::vector<Iteration> iterations;
    // Peak RSS over the first iteration, the whole of what a single run
    // of the workload uses. Later iterations can grow it by several MiB,
    // depending on how the iterations before them left the heap.
    double peak_rss_mb = 0.0;
    while (iterations.size() < min_iterations
           || secondsSince(start) < static_cast<double>(options.seconds)) {
        Iteration it = options.trace ? runTracedPair(options)
                                     : runCorrected(options);
        std::fprintf(stderr, "iteration %zu: wall_s %.4f", iterations.size(),
                     it.host["wall_s"]);
        if (options.trace)
            std::fprintf(stderr, " trace_overhead_frac %.4f",
                         it.host["trace_overhead_frac"]);
        else
            std::fprintf(stderr,
                         " setup_s %.4f steady_req_per_s %.1f (host "
                         "slowdown %.3f, uncorrected wall_s %.4f)",
                         it.host["setup_s"], it.host["steady_req_per_s"],
                         it.host["host.slowdown"],
                         it.host["uncorrected.wall_s"]);
        std::fprintf(stderr, "\n");
        iterations.push_back(std::move(it));
        if (iterations.size() == 1)
            peak_rss_mb = peakRssMb();
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;
    for (const Iteration &it : iterations) {
        attempted += it.attempted;
        failed += it.failed;
        problems.insert(problems.end(), it.problems.begin(),
                        it.problems.end());
    }
    std::map<std::string, double> metrics;
    for (const auto &[key, value] : iterations.front().sim) {
        metrics[key] = value;
        for (const Iteration &it : iterations) {
            const auto other = it.sim.find(key);
            if (other == it.sim.end() || other->second != value)
                problems.push_back("simulated " + key
                                   + " differs between iterations of one "
                                     "seed");
        }
    }
    for (const auto &[key, value] : iterations.front().host) {
        std::vector<double> values;
        for (const Iteration &it : iterations) {
            const auto other = it.host.find(key);
            if (other != it.host.end())
                values.push_back(other->second);
        }
        metrics[key] = median(values);
    }
    metrics["peak_rss_mb"] = peak_rss_mb;
    if (!problems.empty())
        failed = attempted;

    palermo::JsonWriter w;
    w.beginObject();
    w.field("workload", options.workload);
    w.field("seed", options.seed);
    w.field("trace", options.trace);
    w.field("tiny", options.tiny);
    w.field("iterations", static_cast<std::uint64_t>(iterations.size()));
    w.field("compiler", PERFBENCH_COMPILER);
    w.field("build_type", PERFBENCH_BUILD_TYPE);
    w.field("correct", problems.empty());
    w.field("attempted", attempted);
    w.field("failed", failed);
    w.key("problems").beginArray();
    for (const std::string &problem : problems)
        w.value(problem);
    w.endArray();
    w.key("notes").beginArray();
    for (const std::string &note : iterations.front().notes)
        w.value(note);
    if (!options.trace) {
        char line[200];
        std::snprintf(line, sizeof(line),
                      "host slowdown %.3f (reference kernel median over "
                      "its reference time); uncorrected wall_s %.4f s, "
                      "setup_s %.4f s, steady_req_per_s %.1f req/s",
                      metrics["host.slowdown"],
                      metrics["uncorrected.wall_s"],
                      metrics["uncorrected.setup_s"],
                      metrics["uncorrected.steady_req_per_s"]);
        w.value(line);
    }
    w.endArray();
    w.key("metrics").beginObject();
    for (const auto &[key, value] : metrics)
        w.field(key, value);
    w.endObject();
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return problems.empty() ? 0 : 1;
}
