/**
 * @file
 * Saturated workloads (ring-b22-setup, palermo-b16-steady).
 *
 * The untraced iteration is what a user of the library runs: build a
 * SimSession with the built-in frontend and step it to completion.
 * The traced iteration rebuilds the same machine from its public
 * parts and runs its own copy of SimSession's cycle loop, so each call
 * into a layer (controller, DRAM model, frontend) gets its own span.
 * The copy leaves out quiescent-window batching: it counts the cycles
 * that batching could have skipped (sim.idle_cycles) instead, and the
 * equality check in main.cc proves the copy cycle-exact for as long as
 * it stays in step with the session.
 */

#include <algorithm>
#include <memory>

#include "controller/controller.hh"
#include "mem/dram_system.hh"
#include "sim/experiment.hh"
#include "sim/protocol_registry.hh"
#include "sim/sweep.hh"
#include "workloads.hh"

namespace perfbench {

using namespace palermo;

namespace {

/** Same runaway guard as SimSession. */
constexpr Tick kTickLimit = 2'000'000'000ull;

SystemConfig
configFor(const SimWorkload &workload, std::uint64_t seed)
{
    SystemConfig config;
    config.protocol.numBlocks = 1ull << workload.log2Blocks;
    config.totalRequests = workload.requests;
    config.warmupFraction = workload.warmupFraction;
    config.seed = seed;
    return normalizedProtocolConfig(workload.protocol, config);
}

std::uint64_t
warmupServedOf(const SystemConfig &config)
{
    return static_cast<std::uint64_t>(config.totalRequests
                                      * config.warmupFraction);
}

Iteration
runUntraced(const SimWorkload &workload, std::uint64_t seed,
            HostClock &clock)
{
    Iteration it;
    const double start = clock.now();
    const SystemConfig config = configFor(workload, seed);

    const double setup = clock.now();
    auto session = makeSession(workload.protocol, Workload::Random, config);
    it.host["setup_s"] = clock.now() - setup;

    const std::uint64_t warmup = warmupServedOf(config);
    while (!session->done() && session->served() < warmup) {
        session->step();
        clock.step();
    }

    const double window = clock.now();
    const unsigned long long allocs = heapAllocations();
    while (!session->done()) {
        session->step();
        clock.step();
    }
    session->drain();
    const double window_s = clock.now() - window;
    const unsigned long long window_allocs = heapAllocations() - allocs;

    RunRecord record;
    record.point.kind = workload.protocol;
    record.point.config = config;
    record.point.id = protocolShortName(workload.protocol);
    record.metrics = session->snapshot();
    const RunMetrics &m = record.metrics;

    recordRunMetrics(m, session->now(), &it);
    std::vector<double> latencies;
    latencies.reserve(m.samples.size());
    for (const LatencySample &sample : m.samples)
        latencies.push_back(sample.latency);
    it.sim["p50_latency_cycles"] = quantile(latencies, 0.50);
    it.sim["p99_latency_cycles"] = quantile(latencies, 0.99);
    it.sim["sim.latency_samples"] = static_cast<double>(latencies.size());
    if (m.measuredRequests > 0) {
        it.host["steady_req_per_s"] =
            static_cast<double>(m.measuredRequests) / window_s;
        it.host["sim.allocs_per_req"] =
            static_cast<double>(window_allocs)
            / static_cast<double>(m.measuredRequests);
    }

    sanityCheck({record}, &it.problems);
    if (it.sim["p99_latency_cycles"] < it.sim["p50_latency_cycles"])
        it.problems.push_back("latency quantiles out of order");
    it.attempted = config.totalRequests;
    it.failed = config.totalRequests
        - std::min<std::uint64_t>(config.totalRequests, m.served);

    session.reset(); // Teardown is part of the user-visible wall time.
    it.host["wall_s"] = clock.now() - start;
    return it;
}

Iteration
runTraced(const SimWorkload &workload, std::uint64_t seed)
{
    Iteration it;
    Spans spans;
    const Clock::time_point start = Clock::now();
    const SystemConfig config = configFor(workload, seed);

    const unsigned long long build_allocs = heapAllocations();
    std::unique_ptr<Controller> controller;
    {
        SpanTimer span(&spans, SpanId::OramBuild);
        controller = buildProtocolController(workload.protocol, config);
    }
    it.host["oram.build_allocs"] =
        static_cast<double>(heapAllocations() - build_allocs);
    std::unique_ptr<DramSystem> dram;
    {
        SpanTimer span(&spans, SpanId::MemBuild);
        dram = std::make_unique<DramSystem>(config.dram);
    }
    std::unique_ptr<Frontend> frontend;
    {
        SpanTimer span(&spans, SpanId::TraceBuild);
        frontend = makeFrontend(Workload::Random, config);
    }

    ControllerStats &cs = controller->stats();
    const std::uint64_t warmup = warmupServedOf(config);
    bool measuring = warmup == 0;
    std::uint64_t idle_cycles = 0;

    // One SimSession::runCycle (admit = true) or drain() iteration.
    const auto cycle = [&](bool admit) {
        const Tick now = dram->now();
        if (now >= kTickLimit) {
            it.problems.push_back("traced loop ran away");
            return false;
        }
        const std::vector<Completion> &done = dram->drainCompletions();
        if (!done.empty()) {
            SpanTimer span(&spans, SpanId::OnCompletion);
            for (const Completion &completion : done)
                controller->onCompletion(completion.tag);
        }
        if (admit) {
            if (controller->idle() && dram->readQuiescent()
                && frontend->nextIssueAt(now) > now)
                ++idle_cycles;
            while (frontend->wantsIssue(now) && controller->canAccept()) {
                FrontendRequest request{};
                {
                    SpanTimer span(&spans, SpanId::Produce);
                    request = frontend->produce(now);
                }
                {
                    SpanTimer span(&spans, SpanId::Push);
                    controller->push(request.pa, request.write,
                                     request.value, request.dummy);
                }
                if (config.constantRate)
                    break;
            }
        }
        {
            SpanTimer span(&spans, SpanId::ControllerTick);
            controller->tick(*dram);
        }
        {
            SpanTimer span(&spans, SpanId::MemTick);
            dram->tick();
        }
        if (admit && !measuring && cs.served >= warmup) {
            measuring = true;
            dram->resetStats();
            cs.dramCycles = {};
            cs.syncCycles = {};
            cs.latency.reset();
            cs.samples.clear();
        }
        return true;
    };

    {
        SpanTimer span(&spans, SpanId::Loop);
        while (cs.served < config.totalRequests && cycle(true)) {
        }
        for (unsigned i = 0; i < 4 * config.dram.timing.tRC
                             && !controller->idle() && cycle(false);
             ++i) {
        }
    }

    const DramSnapshot snap = dram->snapshot();
    const double cycles = static_cast<double>(dram->now());
    it.sim["sim.cycles"] = cycles;
    it.sim["sim.served"] = static_cast<double>(cs.served);
    it.sim["sim.dummies"] = static_cast<double>(cs.dummies);
    it.sim["mem.reads"] = static_cast<double>(snap.reads);
    it.sim["mem.writes"] = static_cast<double>(snap.writes);
    it.sim["sim.idle_cycles"] = static_cast<double>(idle_cycles);

    const double loop = spans.seconds(SpanId::Loop);
    double children = 0.0;
    for (const SpanId id :
         {SpanId::OnCompletion, SpanId::Produce, SpanId::Push,
          SpanId::ControllerTick, SpanId::MemTick})
        children += spans.seconds(id);
    if (children > loop)
        it.problems.push_back("loop child spans exceed the loop span");

    it.host["oram.build_s"] = spans.seconds(SpanId::OramBuild);
    it.host["mem.build_s"] = spans.seconds(SpanId::MemBuild);
    it.host["trace.build_s"] = spans.seconds(SpanId::TraceBuild);
    it.host["controller.tick_s"] = spans.seconds(SpanId::ControllerTick);
    it.host["controller.push_s"] = spans.seconds(SpanId::Push);
    it.host["controller.on_completion_s"] =
        spans.seconds(SpanId::OnCompletion);
    it.host["controller.ns_per_cycle"] =
        1e9 * spans.seconds(SpanId::ControllerTick) / cycles;
    it.host["mem.tick_s"] = spans.seconds(SpanId::MemTick);
    it.host["mem.ns_per_cycle"] =
        1e9 * spans.seconds(SpanId::MemTick) / cycles;
    it.host["trace.produce_s"] = spans.seconds(SpanId::Produce);
    it.host["sim.loop_s"] = loop;
    it.host["sim.loop_self_s"] = loop - children;

    it.attempted = config.totalRequests;
    controller.reset();
    dram.reset();
    frontend.reset();
    it.host["wall_s"] = secondsSince(start);
    if (spans.seconds(SpanId::OramBuild) + spans.seconds(SpanId::MemBuild)
            + spans.seconds(SpanId::TraceBuild) + loop
        > it.host["wall_s"])
        it.problems.push_back("build and loop spans exceed wall time");
    return it;
}

} // namespace

void
recordRunMetrics(const RunMetrics &m, std::uint64_t final_tick,
                 Iteration *it)
{
    it->sim["req_per_kcycle"] = m.requestsPerKilocycle;
    it->sim["sim.cycles"] = static_cast<double>(final_tick);
    it->sim["sim.served"] = static_cast<double>(m.served);
    it->sim["sim.dummies"] = static_cast<double>(m.dummies);
    it->sim["mem.reads"] = static_cast<double>(m.dramReads);
    it->sim["mem.writes"] = static_cast<double>(m.dramWrites);
    it->sim["controller.sync_fraction"] = m.syncFraction;
    it->sim["controller.dummy_ratio"] = m.dummyRatio;
    it->sim["controller.stash_max"] = static_cast<double>(m.stashMax);
    it->sim["mem.reads_per_req"] = m.readsPerRequest;
    it->sim["mem.writes_per_req"] = m.writesPerRequest;
    it->sim["mem.row_hit_rate"] = m.rowHitRate;
    it->sim["mem.bw_utilization"] = m.bwUtilization;
    it->sim["mem.avg_read_latency_cycles"] = m.avgReadLatency;
    it->sim["mem.avg_outstanding"] = m.avgOutstanding;
}

Iteration
runSimIteration(const SimWorkload &workload, std::uint64_t seed,
                bool traced, HostClock &clock)
{
    return traced ? runTraced(workload, seed)
                  : runUntraced(workload, seed, clock);
}

} // namespace perfbench
