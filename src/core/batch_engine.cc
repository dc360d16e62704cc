/**
 * @file
 * BatchEngine implementation.
 */

#include "batch_engine.hh"

#include <algorithm>

#include "util/metrics.hh"
#include "util/profiler.hh"

namespace tlc {

namespace {

/** Batch-engine metrics, registered once and shared by all sites. */
struct BatchMetrics
{
    MetricCounter &groups;
    MetricCounter &lanes;
    MetricCounter &fastLanes;
    MetricCounter &genericLanes;
    MetricCounter &tagProbes;

    static BatchMetrics &get()
    {
        static BatchMetrics m{
            MetricsRegistry::global().counter("explore.batch.groups"),
            MetricsRegistry::global().counter("explore.batch.lanes"),
            MetricsRegistry::global().counter("explore.batch.fast_lanes"),
            MetricsRegistry::global().counter(
                "explore.batch.generic_lanes"),
            MetricsRegistry::global().counter("cache.l1.tag_probes"),
        };
        return m;
    }
};

} // namespace

void
BatchEngine::run(const TraceBuffer &trace, std::uint64_t warmup_refs,
                 SimGroup &group)
{
    const auto &recs = trace.records();
    const std::uint64_t warm = std::min<std::uint64_t>(warmup_refs,
                                                       recs.size());
    group.simulate(recs.data(), recs.size(),
                   static_cast<std::size_t>(warm));
}

BatchEngine::Result
BatchEngine::simulateConfigs(const TraceBuffer &trace,
                             std::uint64_t warmup_refs,
                             std::span<const SystemConfig> configs)
{
    SimGroup group;
    for (const SystemConfig &c : configs) {
        if (c.hasL2()) {
            group.addTwoLevel(c.l1Params(), c.l2Params(),
                              c.assume.policy);
        } else {
            group.addSingleLevel(c.l1Params());
        }
    }

    {
        ScopedTimer timer(phase::kSimBatch);
        run(trace, warmup_refs, group);
    }

    Result r;
    r.stats.reserve(configs.size());
    for (std::size_t lane = 0; lane < group.laneCount(); ++lane) {
        r.stats.push_back(group.stats(lane));
        if (group.laneIsFlat(lane))
            ++r.flatLanes;
        else
            ++r.genericLanes;
    }

    BatchMetrics &m = BatchMetrics::get();
    m.groups.inc();
    m.lanes.inc(group.laneCount());
    m.fastLanes.inc(r.flatLanes);
    m.genericLanes.inc(r.genericLanes);
    m.tagProbes.inc(group.l1TagProbes());
    return r;
}

} // namespace tlc
