/**
 * @file
 * Shared vocabulary of the perfbench harness: the workload shapes, the
 * per-iteration result, the corrected host clock, and the span timers
 * of the traced mode.
 *
 * An iteration is one complete run of a workload: build every session
 * it uses, prefill, warm up, measure, drain, and check. The harness
 * repeats iterations for the requested host time and reports medians
 * of the host-side values; simulated values must repeat bit for bit
 * across iterations of one seed.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/system_config.hh"

namespace palermo {
struct RunMetrics;
} // namespace palermo

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Total heap allocations of this process so far (see main.cc). */
unsigned long long heapAllocations();

/**
 * Host time corrected for the speed of a shared host.
 *
 * On a host shared with other work, one iteration can take 20-40%
 * longer from one minute to the next. A fixed reference kernel, a sort
 * and a binary heap over cache-resident arrays, is branchy and
 * cache-bound like the simulator, and it slows down with it. The clock
 * times that kernel every kStepsPerSample steps of the simulated
 * machine. scale() is kReferenceSeconds over the kernel's median time,
 * so a host time multiplied by it reads as the time the same work takes
 * when the kernel runs at its reference speed. now() leaves out the
 * time spent in the kernel.
 */
class HostClock
{
  public:
    /**
     * The kernel's median time on the host the benchmark was tuned on
     * (see perfbench/README.md). It only fixes the unit: host values
     * read in seconds of that host.
     */
    static constexpr double kReferenceSeconds = 160e-6;
    /** Steps of the simulated machine between two kernel samples. */
    static constexpr std::uint64_t kStepsPerSample = 8192;
    /** Samples taken before the clock starts, so every run has some. */
    static constexpr int kInitialSamples = 32;

    /** With `sampling` false, now() is plain wall time and scale() 1. */
    explicit HostClock(bool sampling);

    /** Seconds since construction, minus the time spent in the kernel. */
    double now() const;

    /** Counts one step of the simulated machine. */
    void step()
    {
        if (sampling_ && ++steps_ % kStepsPerSample == 0)
            sample();
    }

    /** kReferenceSeconds over the kernel's median time (1 if unsampled). */
    double scale() const;

  private:
    void sample();

    bool sampling_;
    Clock::time_point start_;
    double kernelSeconds_ = 0.0;
    std::uint64_t steps_ = 0;
    std::vector<double> times_;
    std::vector<std::uint32_t> keys_;
    std::vector<std::uint64_t> heap_;
    std::uint64_t state_ = 0x9e3779b97f4a7c15ull;
};

/** Every layer-boundary call the traced mode times. */
enum class SpanId
{
    OramBuild,       ///< buildProtocolController (tree and prefill).
    MemBuild,        ///< DramSystem constructor.
    TraceBuild,      ///< makeFrontend.
    Loop,            ///< The whole cycle loop (parent of the calls below).
    OnCompletion,    ///< Controller::onCompletion deliveries.
    Produce,         ///< Frontend::produce.
    Push,            ///< Controller::push.
    ControllerTick,  ///< Controller::tick.
    MemTick,         ///< DramSystem::tick.
    ServiceBuild,    ///< ObliviousKvService constructor.
    ServiceOffer,    ///< ObliviousKvService::offer.
    ServiceStep,     ///< ObliviousKvService::step.
    ServiceDrain,    ///< ObliviousKvService::drainAll.
    ServiceSnapshot, ///< ObliviousKvService::snapshot and simMetrics.
    SecurityGate,    ///< Leaf-trace uniformity and correlation gates.
    Count,
};

/** Host time summed over every call of each span. */
class Spans
{
  public:
    void add(SpanId id, Clock::duration elapsed)
    {
        total_[static_cast<std::size_t>(id)] += elapsed;
    }

    double seconds(SpanId id) const
    {
        return std::chrono::duration<double>(
                   total_[static_cast<std::size_t>(id)])
            .count();
    }

  private:
    std::array<Clock::duration, static_cast<std::size_t>(SpanId::Count)>
        total_{};
};

/** Times one call into `spans`; does nothing when `spans` is null. */
class SpanTimer
{
  public:
    SpanTimer(Spans *spans, SpanId id) : spans_(spans), id_(id)
    {
        if (spans_ != nullptr)
            start_ = Clock::now();
    }

    ~SpanTimer()
    {
        if (spans_ != nullptr)
            spans_->add(id_, Clock::now() - start_);
    }

    SpanTimer(const SpanTimer &) = delete;
    SpanTimer &operator=(const SpanTimer &) = delete;

  private:
    Spans *spans_;
    SpanId id_;
    Clock::time_point start_{};
};

/** Results of one iteration, keyed by the metric names of BENCHMARK.json. */
struct Iteration
{
    /** Host-side values: reported as the median over iterations. */
    std::map<std::string, double> host;
    /** Simulated values: must repeat exactly for a given seed. */
    std::map<std::string, double> sim;
    /** Human-readable lines (rung tables, sample counts). */
    std::vector<std::string> notes;
    std::vector<std::string> problems;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/**
 * Simulated counts the traced run must reproduce exactly: final tick,
 * served and dummy requests, and measured DRAM reads and writes.
 */
inline const std::vector<std::string> &
equalityKeys()
{
    static const std::vector<std::string> keys{
        "sim.cycles", "sim.served", "sim.dummies", "mem.reads",
        "mem.writes"};
    return keys;
}

/** A saturated closed-loop run of the built-in uniform random trace. */
struct SimWorkload
{
    palermo::ProtocolKind protocol;
    unsigned log2Blocks;
    std::uint64_t requests;
    double warmupFraction;
};

/** A constant-rate stretch of the open-loop KV schedule. */
struct KvPhase
{
    double ratePerKilocycle; ///< Total offered rate, both tenants.
    std::uint64_t cycles;
};

/** Two open-loop Poisson tenants driving ObliviousKvService. */
struct KvWorkload
{
    unsigned log2Blocks;
    KvPhase warmup;
    std::array<KvPhase, 3> rungs; ///< Half knee, below knee, overload.
    double latencyLimitCycles;    ///< p99 limit of the SLO rate.
};

/**
 * One iteration of a saturated workload. Untraced, it drives the
 * library's SimSession and times it with `clock`; traced, it runs a
 * copy of the session cycle loop built from public calls with a span
 * around each.
 */
Iteration runSimIteration(const SimWorkload &workload, std::uint64_t seed,
                          bool traced, HostClock &clock);

/**
 * One iteration of the KV workload, timed with `clock`; traced adds a
 * span per call.
 */
Iteration runKvIteration(const KvWorkload &workload, std::uint64_t seed,
                         bool traced, HostClock &clock);

/**
 * Record the simulator's own metrics (throughput, controller and DRAM
 * counters) under their BENCHMARK.json names.
 */
void recordRunMetrics(const palermo::RunMetrics &metrics,
                      std::uint64_t final_tick, Iteration *it);

/** Linear-interpolated quantile of unsorted samples (0 when empty). */
double quantile(std::vector<double> samples, double q);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
