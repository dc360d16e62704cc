/**
 * @file
 * Explorer implementation.
 */

#include "explorer.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <sstream>

#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/parallel.hh"
#include "util/profiler.hh"
#include "util/table.hh"
#include "util/trace_event.hh"

namespace tlc {

namespace {

/** Sweep-engine metrics, registered once and shared by all sites. */
struct ExploreMetrics
{
    MetricCounter &priced;
    MetricCounter &failed;
    MetricCounter &timingHits;
    MetricCounter &timingMisses;
    MetricCounter &sweeps;

    static ExploreMetrics &get()
    {
        static ExploreMetrics m{
            MetricsRegistry::global().counter("explore.points.priced"),
            MetricsRegistry::global().counter("explore.points.failed"),
            MetricsRegistry::global().counter(
                "explore.timing_cache.hits"),
            MetricsRegistry::global().counter(
                "explore.timing_cache.misses"),
            MetricsRegistry::global().counter("explore.sweeps"),
        };
        return m;
    }
};

/**
 * Configurations per pricing batch. A sweep simulates as one SimGroup
 * (which spreads its pass over the team itself), so batches only
 * split the pricing — and, for a sweep whose statistics come from
 * forked shards, the fetching — across the worker team.
 */
constexpr std::size_t kMaxBatchConfigs = 32;

/**
 * Contiguous batches of @p n configs on @p workers workers: batch i
 * is [bounds[i], bounds[i + 1]). Two per worker, at most
 * kMaxBatchConfigs each, so a slow worker leaves little behind.
 */
std::vector<std::size_t>
batchBounds(std::size_t n, std::size_t workers)
{
    const std::size_t per =
        workers <= 1 ? kMaxBatchConfigs
                     : std::clamp<std::size_t>(
                           (n + 2 * workers - 1) / (2 * workers), 1,
                           kMaxBatchConfigs);
    std::vector<std::size_t> bounds{0};
    for (std::size_t lo = 0; lo < n; lo += per)
        bounds.push_back(std::min(lo + per, n));
    return bounds;
}

/** A failure of one design point itself, as opposed to its
 *  benchmark's trace (which fails every point the same way). */
bool
isPointFailure(StatusCode code)
{
    return code == StatusCode::InvalidConfig ||
        code == StatusCode::WorkerCrash ||
        code == StatusCode::WorkerTimeout;
}

} // namespace

std::function<void(const SweepProgress &)>
stderrProgressPrinter(std::string label)
{
    return [label = std::move(label)](const SweepProgress &p) {
        char line[256];
        int n = std::snprintf(
            line, sizeof(line),
            "progress: %s %zu/%zu (%.1f%%) %zu failed, %.1fs elapsed, "
            "eta %.1fs\n",
            label.c_str(), p.done, p.total,
            p.total ? 100.0 * static_cast<double>(p.done) /
                          static_cast<double>(p.total)
                    : 100.0,
            p.failed, p.elapsedSeconds, p.etaSeconds);
        if (n > 0) {
            std::fwrite(line, 1,
                        std::min(static_cast<std::size_t>(n),
                                 sizeof(line) - 1),
                        stderr);
        }
    };
}

// ---------------------------------------------------------------------
// FailureReport
// ---------------------------------------------------------------------

void
FailureReport::add(std::string subject, Status status)
{
    tlc_assert(!status.ok(), "recording an OK status for '%s'",
               subject.c_str());
    MetricsRegistry::global().counter("explore.failures.recorded").inc();
    std::lock_guard<std::mutex> lock(mu_);
    failures_.push_back({std::move(subject), std::move(status)});
}

bool
FailureReport::empty() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return failures_.empty();
}

std::size_t
FailureReport::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return failures_.size();
}

std::vector<SweepFailure>
FailureReport::failures() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return failures_;
}

bool
FailureReport::mentions(const std::string &needle) const
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &f : failures_) {
        if (f.subject.find(needle) != std::string::npos ||
            f.status.message().find(needle) != std::string::npos) {
            return true;
        }
    }
    return false;
}

std::string
FailureReport::summary() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ostringstream os;
    if (failures_.empty()) {
        os << "sweep completed with no failures\n";
        return os.str();
    }
    os << "sweep skipped " << failures_.size() << " point"
       << (failures_.size() == 1 ? "" : "s") << ":\n";
    Table t({"subject", "error", "detail"});
    for (const auto &f : failures_) {
        t.beginRow();
        t.cell(f.subject);
        t.cell(statusCodeName(f.status.code()));
        t.cell(f.status.message());
    }
    t.printAscii(os);
    return os.str();
}

// ---------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------

Explorer::Explorer(MissRateEvaluator &evaluator,
                   const AccessTimeModel &timing, const AreaModel &area)
    : evaluator_(evaluator), timing_(timing), area_(area)
{
}

const TimingResult &
Explorer::timingOf(std::uint64_t size_bytes, std::uint32_t assoc,
                   std::uint32_t line_bytes)
{
    TimingKey key = timingKey(size_bytes, assoc, line_bytes);
    {
        std::lock_guard<std::mutex> lock(timingMu_);
        auto it = timingCache_.find(key);
        if (it != timingCache_.end()) {
            ExploreMetrics::get().timingHits.inc();
            return it->second;
        }
    }
    ExploreMetrics::get().timingMisses.inc();

    // Run the organization search outside the lock — it is the
    // expensive part, and two workers racing to price the same
    // geometry compute identical results (emplace keeps the first).
    SramGeometry g;
    g.sizeBytes = size_bytes;
    g.blockBytes = line_bytes;
    g.assoc = assoc;
    TimingResult r = [&] {
        ScopedTimer t(phase::kModelTiming);
        return timing_.optimize(g);
    }();

    std::lock_guard<std::mutex> lock(timingMu_);
    // std::map node addresses are stable, so the reference survives
    // later insertions by other workers.
    return timingCache_.emplace(key, std::move(r)).first->second;
}

std::size_t
Explorer::timingCacheSize() const
{
    std::lock_guard<std::mutex> lock(timingMu_);
    return timingCache_.size();
}

double
Explorer::areaOf(const SystemConfig &config)
{
    // Resolve the timing memo first so the area phase timer below
    // measures the area model alone, not a first-touch organization
    // search charged to the wrong phase.
    const std::uint32_t line = config.assume.lineBytes;
    const TimingResult &l1t =
        timingOf(config.l1Bytes, config.assume.l1Assoc, line);
    const TimingResult *l2t =
        config.hasL2()
            ? &timingOf(config.l2Bytes, config.assume.l2Assoc, line)
            : nullptr;

    ScopedTimer timer(phase::kModelArea);
    SramGeometry l1g;
    l1g.sizeBytes = config.l1Bytes;
    l1g.blockBytes = line;
    l1g.assoc = config.assume.l1Assoc;
    CellType l1cell = config.assume.dualPortedL1 ? CellType::DualPorted
                                                 : CellType::SinglePorted6T;
    double total = 2.0 * area_.area(l1g, l1t.dataOrg, l1t.tagOrg, l1cell);

    if (l2t) {
        SramGeometry l2g;
        l2g.sizeBytes = config.l2Bytes;
        l2g.blockBytes = line;
        l2g.assoc = config.assume.l2Assoc;
        total += area_.area(l2g, l2t->dataOrg, l2t->tagOrg,
                            CellType::SinglePorted6T);
    }
    return total;
}

DesignPoint
Explorer::pricePoint(const SystemConfig &config,
                     const HierarchyStats &miss)
{
    DesignPoint p;
    p.config = config;
    p.l1Timing = timingOf(config.l1Bytes, config.assume.l1Assoc,
                          config.assume.lineBytes);
    if (config.hasL2()) {
        p.l2Timing = timingOf(config.l2Bytes, config.assume.l2Assoc,
                              config.assume.lineBytes);
    }
    p.areaRbe = areaOf(config);
    p.miss = miss;

    TpiParams tp;
    tp.l1CycleNs = p.l1Timing.cycleNs;
    tp.l2CycleNsRaw = config.hasL2() ? p.l2Timing.cycleNs : 0.0;
    tp.offchipNs = config.assume.offchipNs;
    tp.issuePerCycle = config.assume.dualPortedL1 ? 2.0 : 1.0;
    tp.hasL2 = config.hasL2();
    {
        ScopedTimer t(phase::kModelTpi);
        p.tpi = computeTpi(p.miss, tp);
    }
    ExploreMetrics::get().priced.inc();
    return p;
}

DesignPoint
Explorer::evaluate(Benchmark b, const SystemConfig &config)
{
    Expected<DesignPoint> p = tryEvaluate(b, config);
    if (!p.ok()) {
        fatal("design point %s: %s", config.label().c_str(),
              p.status().message().c_str());
    }
    return std::move(p.value());
}

Expected<DesignPoint>
Explorer::tryEvaluate(Benchmark b, const SystemConfig &config)
{
    // Validate the geometry before pricing: both the cache model
    // and the timing model panic on degenerate shapes, and a sweep
    // must survive those as skipped points.
    Status cs = config.check();
    if (!cs.ok())
        return cs;

    Expected<HierarchyStats> miss = evaluator_.tryMissStats(b, config);
    if (!miss.ok())
        return miss.status();

    return pricePoint(config, miss.value());
}

std::vector<DesignPoint>
Explorer::evaluateAll(Benchmark b, const std::vector<SystemConfig> &configs,
                      FailureReport *report, const BatchStats &stats)
{
    return sweepBatches(b, configs, report, stats, {}, 0.0);
}

std::vector<DesignPoint>
Explorer::sweepBatches(Benchmark b, const std::vector<SystemConfig> &configs,
                       FailureReport *report, const BatchStats &stats,
                       const ProgressCallback &progress,
                       double interval_seconds)
{
    std::vector<DesignPoint> out;
    if (configs.empty())
        return out;

    // An unloadable benchmark trace fails every point the same way;
    // detect it once up front and report the benchmark, not every
    // config. The preflight is skipped when the statistics come from
    // elsewhere (the trace is loaded in another process) and with a
    // persistent result store attached (a fully warm sweep must not
    // load or generate the trace at all); the same trace failure,
    // should it surface from the lanes that do simulate, is
    // collapsed to one report entry in the collection loop below.
    if (!stats && !evaluator_.hasResultStore()) {
        Expected<const TraceBuffer *> t = evaluator_.tryTrace(b);
        if (!t.ok()) {
            if (!report) {
                fatal("benchmark '%s': %s", Workloads::info(b).name,
                      t.status().message().c_str());
            }
            report->add(std::string("benchmark ") +
                            Workloads::info(b).name,
                        t.status());
            return out;
        }
    }

    ExploreMetrics::get().sweeps.inc();

    // Observability plumbing, all inert unless switched on: the
    // trace-event recorder adds one slice for the sweep's in-process
    // simulation plus one per design point on the pricing worker's
    // track, and the progress callback fires on a throttle as points
    // complete. Neither affects results — the output/report ordering
    // below stays byte-identical to serial.
    TraceEventRecorder *recorder = TraceEventRecorder::active();
    const char *benchName = Workloads::info(b).name;
    using ProgressClock = std::chrono::steady_clock;
    ProgressClock::time_point sweepStart = ProgressClock::now();
    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> failedSoFar{0};
    std::atomic<std::int64_t> lastFireUs{-1};
    const std::int64_t intervalUs = static_cast<std::int64_t>(
        std::max(0.0, interval_seconds) * 1e6);

    auto fireProgress = [&](std::size_t done_now, bool final) {
        if (!progress)
            return;
        std::int64_t nowUs =
            std::chrono::duration_cast<std::chrono::microseconds>(
                ProgressClock::now() - sweepStart)
                .count();
        if (!final) {
            // One worker wins the CAS per throttle window; the rest
            // skip. The final update never skips, so a consumer
            // always sees done == total.
            std::int64_t last =
                lastFireUs.load(std::memory_order_relaxed);
            if (last >= 0 && nowUs - last < intervalUs)
                return;
            if (!lastFireUs.compare_exchange_strong(
                    last, nowUs, std::memory_order_relaxed)) {
                return;
            }
        }
        SweepProgress sp;
        sp.done = done_now;
        sp.total = configs.size();
        sp.failed = failedSoFar.load(std::memory_order_relaxed);
        sp.elapsedSeconds = static_cast<double>(nowUs) * 1e-6;
        sp.etaSeconds =
            done_now ? sp.elapsedSeconds *
                           static_cast<double>(sp.total - done_now) /
                           static_cast<double>(done_now)
                     : 0.0;
        progress(sp);
    };

    // Benchmark-major: the sweep's memo-missing configs simulate as
    // lanes of ONE SimGroup, whose pass spreads over the worker team
    // by epoch (cache/sim_group.hh), so each line size's L1s are
    // walked once per sweep. Pricing then runs in contiguous batches
    // across the team; a BatchStats source slots in for the
    // simulation per batch and leaves everything else as it is.
    // Lanes are fully independent and each index writes only its own
    // slot, so the results, collected after the join in input-index
    // order, are byte-identical to the point-major path whatever the
    // worker count.
    const std::size_t n = configs.size();
    std::vector<Expected<HierarchyStats>> simulated;
    if (!stats) {
        auto begin = recorder ? TraceEventRecorder::Clock::now()
                              : TraceEventRecorder::Clock::time_point{};
        simulated = evaluator_.tryMissStatsBatch(b, configs);
        if (recorder) {
            recorder->complete(
                std::string(benchName) + " sweep", "sim-batch", begin,
                TraceEventRecorder::Clock::now(), parallelWorkerId(),
                std::string("{\"benchmark\": \"") + benchName +
                    "\", \"first\": 0, \"count\": " +
                    std::to_string(n) + "}");
        }
    }
    const std::vector<std::size_t> bounds =
        batchBounds(n, parallelWorkerCount());

    std::vector<std::optional<Expected<DesignPoint>>> slots(n);
    parallelFor(bounds.size() - 1, [&](std::size_t bi) {
        const std::size_t lo = bounds[bi];
        const std::size_t hi = bounds[bi + 1];
        std::vector<Expected<HierarchyStats>> fetched;
        if (stats) {
            fetched = stats(lo, hi);
            tlc_assert(fetched.size() == hi - lo,
                       "batch [%zu, %zu) returned %zu results", lo, hi,
                       fetched.size());
        }
        for (std::size_t i = lo; i < hi; ++i) {
            const Expected<HierarchyStats> &miss =
                stats ? fetched[i - lo] : simulated[i];
            auto begin = recorder
                             ? TraceEventRecorder::Clock::now()
                             : TraceEventRecorder::Clock::time_point{};
            if (miss.ok()) {
                slots[i].emplace(pricePoint(configs[i], miss.value()));
            } else {
                slots[i].emplace(Expected<DesignPoint>(miss.status()));
            }
            if (recorder) {
                recorder->complete(
                    configs[i].label(), "design-point", begin,
                    TraceEventRecorder::Clock::now(), parallelWorkerId(),
                    std::string("{\"benchmark\": \"") + benchName +
                        "\", \"index\": " + std::to_string(i) + "}");
            }
            if (!slots[i]->ok())
                failedSoFar.fetch_add(1, std::memory_order_relaxed);
            std::size_t d =
                done.fetch_add(1, std::memory_order_relaxed) + 1;
            fireProgress(d, /*final=*/false);
        }
    });
    fireProgress(n, /*final=*/true);

    out.reserve(n);
    // With the preflight skipped (result store attached, or
    // statistics simulated in another process), a trace that turns
    // out to be unloadable fails every simulated point with the same
    // status; collapse those to a single "benchmark <name>" entry so
    // the report matches the preflight path's shape. Invalid
    // configurations and quarantined points are failures of their
    // own point and are recorded per point.
    std::string benchFailure;
    for (std::size_t i = 0; i < n; ++i) {
        Expected<DesignPoint> &p = *slots[i];
        if (p.ok()) {
            out.push_back(std::move(p.value()));
        } else if (report) {
            if (!isPointFailure(p.status().code())) {
                std::string repr = p.status().toString();
                if (repr != benchFailure) {
                    benchFailure = std::move(repr);
                    report->add(std::string("benchmark ") + benchName,
                                p.status());
                }
                continue;
            }
            ExploreMetrics::get().failed.inc();
            report->add(configs[i].label(), p.status());
        } else {
            fatal("design point %s: %s", configs[i].label().c_str(),
                  p.status().message().c_str());
        }
    }
    return out;
}

std::vector<BenchmarkSweep>
Explorer::evaluateAll(const SweepRequest &request)
{
    // The request's thread width is in effect for this call only,
    // restored even when a body throws.
    struct WidthScope
    {
        const bool restore;
        const unsigned prev;

        explicit WidthScope(unsigned threads)
            : restore(threads != 0), prev(parallelWorkerOverride())
        {
            if (restore)
                setParallelWorkerCount(threads);
        }

        ~WidthScope()
        {
            if (restore)
                setParallelWorkerCount(prev);
        }
    } width(request.threads);

    std::vector<BenchmarkSweep> out;
    out.reserve(request.benchmarks.size());
    for (Benchmark b : request.benchmarks) {
        out.push_back({b, sweepBatches(b, request.configs, request.report,
                                       {}, request.progress,
                                       request.progressIntervalSeconds)});
    }
    return out;
}

std::vector<DesignPoint>
Explorer::sweep(Benchmark b, const SystemAssumptions &assume,
                bool include_single_level, bool include_two_level,
                FailureReport *report)
{
    return evaluateAll(b,
                       DesignSpace::enumerate(assume, include_single_level,
                                              include_two_level),
                       report);
}

Envelope
Explorer::envelopeOf(const std::vector<DesignPoint> &points)
{
    std::vector<EnvelopePoint> eps;
    eps.reserve(points.size());
    for (const auto &p : points)
        eps.push_back(p.toEnvelopePoint());
    return Envelope::of(std::move(eps));
}

} // namespace tlc
