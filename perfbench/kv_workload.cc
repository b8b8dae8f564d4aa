/**
 * @file
 * kv-openloop-mix: two open-loop Poisson tenants on ObliviousKvService.
 *
 * Tenant 0 draws Zipf(0.99) keys with 10% PUTs, tenant 1 uniform keys
 * with 50% PUTs; each offers half of the total rate. After a warmup
 * phase the total rate steps through three rungs (half the knee, just
 * below it, above it). Every request is offered at the tick it is due
 * and timed from that tick, so queueing under overload counts in its
 * latency. Rung statistics are taken from the service's completion
 * sink: latency by the rung a request arrived in, achieved rate by the
 * rung a response landed in.
 */

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/rng.hh"
#include "scenario/arrival.hh"
#include "scenario/engine.hh"
#include "security/uniformity.hh"
#include "service/kv_service.hh"
#include "sim/sweep.hh"
#include "workloads.hh"

namespace perfbench {

using namespace palermo;

namespace {

struct TenantShape
{
    bool zipf;
    double writeFraction;
};

constexpr std::array<TenantShape, 2> kTenants{{{true, 0.10},
                                               {false, 0.50}}};

/** Bins of the chi-square gate, as the scenario engine sizes them. */
std::size_t
uniformityBins(std::size_t observations, std::uint64_t leaf_space)
{
    std::size_t bins = 64;
    while (bins > 8 && observations < bins * 8)
        bins /= 2;
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(bins, leaf_space));
}

/** Seed of one generator stream; distinct for every (seed, stream). */
std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t stream)
{
    return mix64(mix64(seed) + stream);
}

std::string
securityLine(const char *prefix, const ScenarioSecurity &security)
{
    char line[200];
    std::snprintf(line, sizeof(line),
                  "%s: %llu leaf observations, chi-square %.1f (limit "
                  "%.1f), lag-1 correlation %.4f (limit %.4f)",
                  prefix,
                  static_cast<unsigned long long>(security.leafObservations),
                  security.chiSquare.statistic, security.chiSquare.threshold,
                  security.serialCorrelation, security.correlationBound());
    return line;
}

} // namespace

Iteration
runKvIteration(const KvWorkload &workload, std::uint64_t seed, bool traced,
               HostClock &clock)
{
    Iteration it;
    Spans span_store;
    Spans *spans = traced ? &span_store : nullptr;
    const double start = clock.now();

    std::vector<KvPhase> phases{workload.warmup};
    phases.insert(phases.end(), workload.rungs.begin(),
                  workload.rungs.end());
    double expected_arrivals = 0.0;
    for (const KvPhase &phase : phases)
        expected_arrivals += phase.ratePerKilocycle * phase.cycles / 1000.0;
    const auto warmup_requests = static_cast<std::uint64_t>(
        workload.warmup.ratePerKilocycle * workload.warmup.cycles / 1000.0);

    ServiceConfig config;
    config.protocol = ProtocolKind::Palermo;
    config.system.protocol.numBlocks = 1ull << workload.log2Blocks;
    config.system.seed = seed;
    // The session's own warmup boundary (DRAM and controller counters)
    // falls where the service's does: after the warmup phase's expected
    // number of responses.
    config.system.totalRequests = warmup_requests;
    config.system.warmupFraction = 1.0;
    config.warmupCompletions = warmup_requests;
    config.tenants = kTenants.size();
    // Deep enough that the overload rung backs up without a rejection:
    // a rejected request is a failed operation.
    config.queueCapacity = 1u << 14;
    config.queuePolicy = QueuePolicy::Reject;

    std::unique_ptr<ObliviousKvService> service;
    const double setup = clock.now();
    {
        SpanTimer span(spans, SpanId::ServiceBuild);
        service = std::make_unique<ObliviousKvService>(config);
    }
    it.host["setup_s"] = clock.now() - setup;
    service->enableLeafTrace();

    std::vector<ServiceCompletion> completions;
    completions.reserve(static_cast<std::size_t>(expected_arrivals * 1.5));
    service->setCompletionSink([&](const ServiceCompletion &completion) {
        completions.push_back(completion);
    });

    const std::uint64_t slice = service->tenants().sliceSize();
    ZipfSampler zipf(slice, 0.99, streamSeed(seed, 0));
    Rng uniform_keys(streamSeed(seed, 1));
    Rng coin(streamSeed(seed, 2));
    std::array<Rng, 2> arrivals{Rng(streamSeed(seed, 3)),
                                Rng(streamSeed(seed, 4))};

    std::uint64_t idle_cycles = 0;
    const auto advance_to = [&](Tick target) {
        while (service->now() < target) {
            if (service->quiescent()) {
                idle_cycles += target - service->now();
                SpanTimer span(spans, SpanId::ServiceStep);
                service->step(target - service->now());
            } else {
                SpanTimer span(spans, SpanId::ServiceStep);
                service->step(1);
            }
            clock.step();
        }
    };

    std::uint64_t offered = 0;
    std::uint64_t lateness = 0;
    std::vector<std::uint64_t> rejected(phases.size(), 0);
    std::vector<Tick> bounds{0};
    std::vector<double> marks{clock.now()};
    unsigned long long window_allocs = 0;
    for (std::size_t p = 0; p < phases.size(); ++p) {
        const Tick begin = bounds.back();
        const Tick end = begin + phases[p].cycles;
        const double mean_gap =
            1000.0 * kTenants.size() / phases[p].ratePerKilocycle;
        std::array<double, 2> next{};
        for (std::size_t t = 0; t < next.size(); ++t)
            next[t] = static_cast<double>(begin)
                + arrivalGap(ArrivalProcess::Poisson, mean_gap,
                             arrivals[t]);
        for (;;) {
            const unsigned t = next[0] <= next[1] ? 0 : 1;
            if (next[t] >= static_cast<double>(end))
                break;
            const auto due = static_cast<Tick>(next[t]);
            advance_to(due);
            lateness += service->now() - due;
            const std::uint64_t key = kTenants[t].zipf
                ? zipf.sample() : uniform_keys.range(slice);
            const bool write = coin.chance(kTenants[t].writeFraction);
            Admission admission = Admission::Rejected;
            {
                SpanTimer span(spans, SpanId::ServiceOffer);
                admission = service->offer(t, key, write, offered, due);
            }
            ++offered;
            if (admission != Admission::Accepted)
                ++rejected[p];
            next[t] += arrivalGap(ArrivalProcess::Poisson, mean_gap,
                                  arrivals[t]);
        }
        advance_to(end);
        bounds.push_back(end);
        marks.push_back(clock.now());
        if (p == 0)
            window_allocs = heapAllocations();
    }
    window_allocs = heapAllocations() - window_allocs;
    {
        SpanTimer span(spans, SpanId::ServiceDrain);
        service->drainAll();
    }
    const double loop_end = clock.now();

    ServiceSnapshot snapshot;
    RunRecord record;
    {
        SpanTimer span(spans, SpanId::ServiceSnapshot);
        snapshot = service->snapshot();
        record.metrics = service->simMetrics();
    }
    record.point.kind = config.protocol;
    record.point.config = service->config().system;
    record.point.id = "kv-openloop-mix";
    const RunMetrics &m = record.metrics;
    recordRunMetrics(m, service->now(), &it);

    // Security gates over the attacker-visible merged leaf trace.
    ScenarioSecurity security;
    {
        SpanTimer span(spans, SpanId::SecurityGate);
        const std::vector<Leaf> &leaves = service->leafTrace();
        security.evaluated = true;
        security.leafObservations = leaves.size();
        security.chiSquare = leafUniformity(
            leaves, service->leafSpace(),
            uniformityBins(leaves.size(), service->leafSpace()));
        security.serialCorrelation = serialCorrelation(leaves);
    }
    it.notes.push_back(securityLine("kv security gates", security));
    if (!security.pass())
        it.problems.push_back(securityLine("security gate failed", security));

    // Per-rung statistics (phase 0 is the warmup).
    double slo_rate = 0.0;
    for (std::size_t p = 1; p < phases.size(); ++p) {
        std::vector<double> latency;
        std::uint64_t landed = 0;
        for (const ServiceCompletion &c : completions) {
            if (c.arrival >= bounds[p] && c.arrival < bounds[p + 1])
                latency.push_back(
                    static_cast<double>(c.completion - c.arrival));
            if (c.completion >= bounds[p] && c.completion < bounds[p + 1])
                ++landed;
        }
        const double achieved = 1000.0 * static_cast<double>(landed)
            / static_cast<double>(phases[p].cycles);
        const double p50 = quantile(latency, 0.50);
        const double p99 = quantile(latency, 0.99);
        if (p99 <= workload.latencyLimitCycles && rejected[p] == 0)
            slo_rate = achieved;
        if (p99 < p50)
            it.problems.push_back("latency quantiles out of order");
        char line[160];
        std::snprintf(line, sizeof(line),
                      "kv rung %zu: offered %.2f achieved %.3f req/kcycle, "
                      "p50 %.0f p99 %.0f cycles over %zu requests, "
                      "%llu rejected",
                      p, phases[p].ratePerKilocycle, achieved, p50, p99,
                      latency.size(),
                      static_cast<unsigned long long>(rejected[p]));
        it.notes.push_back(line);
        if (p == 2) {
            it.sim["p50_latency_cycles"] = p50;
            it.sim["p99_latency_cycles"] = p99;
            it.sim["sim.latency_samples"] =
                static_cast<double>(latency.size());
        }
        if (p == 3)
            it.sim["req_per_kcycle"] = achieved;
    }
    it.sim["service.slo_rate_per_kcycle"] = slo_rate;
    it.sim["service.queue_wait_p99_cycles"] =
        snapshot.global.queueingDelay.quantile(0.99);
    it.sim["service.queue_high_watermark"] =
        static_cast<double>(snapshot.queueHighWatermark);
    std::uint64_t rejected_total = 0;
    for (const std::uint64_t count : rejected)
        rejected_total += count;
    it.sim["service.rejected"] = static_cast<double>(rejected_total);
    it.sim["service.generator_lateness_cycles"] =
        static_cast<double>(lateness);
    it.sim["sim.idle_cycles"] = static_cast<double>(idle_cycles);

    // Correctness gates: the simulator's own sanity gate, the
    // lost-request gate, and accounting that closes across scopes.
    sanityCheck({record}, &it.problems);
    if (lateness != 0)
        it.problems.push_back("generator ran late");
    if (snapshot.global.accepted != snapshot.global.completed)
        it.problems.push_back(
            std::to_string(snapshot.global.accepted) + " accepted but "
            + std::to_string(snapshot.global.completed) + " completed");
    ServiceScopeSnapshot sum;
    for (const ServiceScopeSnapshot &tenant : snapshot.perTenant) {
        sum.offered += tenant.offered;
        sum.accepted += tenant.accepted;
        sum.rejected += tenant.rejected;
        sum.completed += tenant.completed;
    }
    if (sum.offered != snapshot.global.offered
        || sum.accepted != snapshot.global.accepted
        || sum.rejected != snapshot.global.rejected
        || sum.completed != snapshot.global.completed)
        it.problems.push_back("tenant sums differ from the global scope");
    const std::uint64_t answered = service->completedTotal();
    if (answered + rejected_total != offered)
        it.problems.push_back("requests left unanswered after drain");
    it.attempted = offered;
    it.failed = offered - std::min(offered, answered);

    const double window_s = marks.back() - marks[1];
    std::uint64_t measured = 0;
    for (const ServiceCompletion &c : completions)
        measured += c.completion >= bounds[1] && c.completion < bounds.back();
    it.host["steady_req_per_s"] = static_cast<double>(measured) / window_s;
    it.host["sim.allocs_per_req"] = static_cast<double>(window_allocs)
        / static_cast<double>(std::max<std::uint64_t>(1, measured));

    if (spans != nullptr) {
        const double loop = loop_end - marks[0];
        const double children = spans->seconds(SpanId::ServiceOffer)
            + spans->seconds(SpanId::ServiceStep)
            + spans->seconds(SpanId::ServiceDrain);
        if (children > loop)
            it.problems.push_back("loop child spans exceed the loop span");
        it.host["service.build_s"] = spans->seconds(SpanId::ServiceBuild);
        it.host["service.offer_s"] = spans->seconds(SpanId::ServiceOffer);
        it.host["service.step_s"] = spans->seconds(SpanId::ServiceStep);
        it.host["service.drain_s"] = spans->seconds(SpanId::ServiceDrain);
        it.host["service.snapshot_s"] =
            spans->seconds(SpanId::ServiceSnapshot);
        it.host["security.gate_s"] = spans->seconds(SpanId::SecurityGate);
        it.host["sim.loop_s"] = loop;
        it.host["sim.loop_self_s"] = loop - children;
    }

    service.reset();
    it.host["wall_s"] = clock.now() - start;
    return it;
}

} // namespace perfbench
