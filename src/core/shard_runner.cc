/**
 * @file
 * Shard-runner implementation: the worker-side simulate-and-report
 * loop, the parent-side retry/bisect/quarantine state machine whose
 * result slots feed Explorer::evaluateAll, and the drivers' shared
 * sweep call.
 */

#include "shard_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <thread>

#include <signal.h>
#include <unistd.h>

#include "util/bytes.hh"
#include "util/flight_recorder.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/profiler.hh"
#include "util/trace_event.hh"

namespace tlc {

namespace {

/** Shard-level supervision metrics (per-worker ones live in
 *  util/supervisor.cc as supervisor.worker.*). */
struct ShardMetrics
{
    MetricCounter &sweeps;
    MetricCounter &shards;
    MetricCounter &retries;
    MetricCounter &bisections;
    MetricCounter &quarantined;
    MetricCounter &backoffWaits;
    MetricCounter &metricFrames;
    MetricCounter &phaseFrames;
    MetricCounter &eventFrames;
    MetricCounter &flightFrames;

    static ShardMetrics &get()
    {
        auto &r = MetricsRegistry::global();
        static ShardMetrics m{
            r.counter("supervisor.sweeps"),
            r.counter("supervisor.shards"),
            r.counter("supervisor.retries"),
            r.counter("supervisor.bisections"),
            r.counter("supervisor.quarantined"),
            r.counter("supervisor.backoff_waits"),
            r.counter("supervisor.telemetry.metric_frames"),
            r.counter("supervisor.telemetry.phase_frames"),
            r.counter("supervisor.telemetry.event_frames"),
            r.counter("supervisor.telemetry.flight_frames"),
        };
        return m;
    }
};

/**
 * Sweep-unique worker attempt serial: the <id> of the telemetry
 * namespace worker.<id>.* and (plus one, the supervisor itself being
 * pid 1) the pid of the attempt's track in the merged trace export.
 * Process-global so ids stay unique across a driver's scenarios.
 */
std::atomic<std::uint32_t> gWorkerSerial{0};

// -----------------------------------------------------------------
// Wire format (payloads of util/supervisor.hh frames)
//
// Result frame: u8 tag=1, u32le global config index, u8 ok;
//   ok   -> the HierarchyStats layout (putHierarchyStats)
//   fail -> u32le StatusCode, u32le message length, message bytes
// Done frame:   u8 tag=2, u32le result-frame count
//
// Telemetry frames (streamed after results, before Done; all string
// fields are u32le length + bytes):
// Metrics frame: u8 tag=3, u32le counter count, per counter
//   (name, u64le value); u32le gauge count, per gauge (name, u64le
//   IEEE-754 bit pattern of the double value)
// Phases frame:  u8 tag=4, u32le phase count, per phase (name,
//   u64le calls, u64le totalNs, u64le maxNs)
// Events frame:  u8 tag=5, u32le event count, per event (u64le tsUs,
//   u64le durUs, u32le tid, name, category, argsJson); chunked at
//   kEventsPerFrame so a frame stays far below kMaxFrameBytes
// Flight frame:  u8 tag=6, then the flight-recorder payload
//   (util/flight_recorder.hh owns that layout; its first byte is
//   this same tag)
// -----------------------------------------------------------------

constexpr std::uint8_t kTagResult = 1;
constexpr std::uint8_t kTagDone = 2;
constexpr std::uint8_t kTagMetrics = 3;
constexpr std::uint8_t kTagPhases = 4;
constexpr std::uint8_t kTagEvents = 5;
constexpr std::uint8_t kTagFlight = 6;

constexpr std::size_t kEventsPerFrame = 256;

std::string
encodeResult(std::uint32_t index, const Expected<HierarchyStats> &r)
{
    std::string out;
    out.push_back(static_cast<char>(kTagResult));
    putU32le(out, index);
    out.push_back(static_cast<char>(r.ok() ? 1 : 0));
    if (r.ok()) {
        putHierarchyStats(out, r.value());
    } else {
        putU32le(out, static_cast<std::uint32_t>(r.status().code()));
        putString(out, r.status().message());
    }
    return out;
}

std::string
encodeDone(std::uint32_t count)
{
    std::string out;
    out.push_back(static_cast<char>(kTagDone));
    putU32le(out, count);
    return out;
}

/** A decoded result frame. */
struct WireResult
{
    std::uint32_t index = 0;
    std::optional<Expected<HierarchyStats>> result;
};

/** A StatusCode from the wire, clamped to the known range. */
StatusCode
clampStatusCode(std::uint32_t raw)
{
    if (raw == 0 ||
        raw > static_cast<std::uint32_t>(StatusCode::WorkerTimeout))
        return StatusCode::InternalError;
    return static_cast<StatusCode>(raw);
}

/** Decode one result-frame payload; false on malformed layout. */
bool
decodeResult(std::string_view payload, WireResult &out)
{
    ByteReader r(payload);
    std::uint8_t tag = 0, ok = 0;
    if (!r.u8(tag) || tag != kTagResult || !r.u32(out.index) ||
        !r.u8(ok))
        return false;
    if (ok) {
        HierarchyStats s;
        if (!readHierarchyStats(r, s) || !r.done())
            return false;
        out.result.emplace(s);
        return true;
    }
    std::uint32_t code = 0;
    std::string msg;
    if (!r.u32(code) || !r.str(msg) || !r.done())
        return false;
    out.result.emplace(Status(clampStatusCode(code), std::move(msg)));
    return true;
}

/** The worker's metrics-registry snapshot as one frame payload.
 *  Values are absolute, but the worker reset its inherited registry
 *  on entry, so absolute *is* the per-attempt delta. */
std::string
encodeMetrics()
{
    auto &reg = MetricsRegistry::global();
    const auto counters = reg.counterValues();
    const auto gauges = reg.gaugeValues();
    std::string out;
    out.push_back(static_cast<char>(kTagMetrics));
    putU32le(out, static_cast<std::uint32_t>(counters.size()));
    for (const auto &[name, value] : counters) {
        putString(out, name);
        putU64le(out, value);
    }
    putU32le(out, static_cast<std::uint32_t>(gauges.size()));
    for (const auto &[name, value] : gauges) {
        putString(out, name);
        std::uint64_t bits = 0;
        static_assert(sizeof bits == sizeof value);
        std::memcpy(&bits, &value, sizeof bits);
        putU64le(out, bits);
    }
    return out;
}

struct WireMetrics
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
};

bool
decodeMetrics(std::string_view payload, WireMetrics &out)
{
    ByteReader r(payload, 1); // past the tag byte
    std::uint32_t n = 0;
    if (!r.u32(n))
        return false;
    out.counters.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        std::string name;
        std::uint64_t value = 0;
        if (!r.str(name) || !r.u64(value))
            return false;
        out.counters.emplace_back(std::move(name), value);
    }
    if (!r.u32(n))
        return false;
    out.gauges.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        std::string name;
        std::uint64_t bits = 0;
        if (!r.str(name) || !r.u64(bits))
            return false;
        double value = 0.0;
        std::memcpy(&value, &bits, sizeof value);
        out.gauges.emplace_back(std::move(name), value);
    }
    return r.done();
}

std::string
encodePhases()
{
    const auto phases = Profiler::global().snapshot();
    std::string out;
    out.push_back(static_cast<char>(kTagPhases));
    putU32le(out, static_cast<std::uint32_t>(phases.size()));
    for (const auto &[name, stats] : phases) {
        putString(out, name);
        putU64le(out, stats.calls);
        putU64le(out, stats.totalNs);
        putU64le(out, stats.maxNs);
    }
    return out;
}

bool
decodePhases(std::string_view payload,
             std::vector<std::pair<std::string, PhaseStats>> &out)
{
    ByteReader r(payload, 1);
    std::uint32_t n = 0;
    if (!r.u32(n))
        return false;
    out.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        std::string name;
        PhaseStats s;
        if (!r.str(name) || !r.u64(s.calls) || !r.u64(s.totalNs) ||
            !r.u64(s.maxNs))
            return false;
        out.emplace_back(std::move(name), s);
    }
    return r.done();
}

std::string
encodeEvents(std::span<const TraceEvent> events)
{
    std::string out;
    out.push_back(static_cast<char>(kTagEvents));
    putU32le(out, static_cast<std::uint32_t>(events.size()));
    for (const TraceEvent &e : events) {
        putU64le(out, e.tsUs);
        putU64le(out, e.durUs);
        putU32le(out, e.tid);
        putString(out, e.name);
        putString(out, e.category);
        putString(out, e.argsJson);
    }
    return out;
}

bool
decodeEvents(std::string_view payload, std::vector<TraceEvent> &out)
{
    ByteReader r(payload, 1);
    std::uint32_t n = 0;
    if (!r.u32(n))
        return false;
    out.reserve(out.size() + n);
    for (std::uint32_t i = 0; i < n; ++i) {
        TraceEvent e;
        if (!r.u64(e.tsUs) || !r.u64(e.durUs) || !r.u32(e.tid) ||
            !r.str(e.name) || !r.str(e.category) || !r.str(e.argsJson))
            return false;
        out.push_back(std::move(e));
    }
    return r.done();
}

// -----------------------------------------------------------------
// Worker side (runs in the forked child)
// -----------------------------------------------------------------

/** Hang in a SIGTERM-proof way, so the SIGKILL escalation is what
 *  actually ends the worker (the injection tests depend on it). */
[[noreturn]] void
hangForever()
{
    signal(SIGTERM, SIG_IGN);
    for (;;)
        pause();
}

/**
 * The forked worker: arm the flight recorder, rebuild the evaluator
 * in this process, simulate the shard's configurations, persist to
 * the shard's own store handle, report each result as one frame,
 * stream telemetry (metrics deltas, phase stats, trace slices,
 * flight ring), and finish with a Done frame. Injected Crash/Hang
 * faults fire while *reporting* the poisoned point — after the
 * flight recorder has seen its label — so the emergency frame names
 * the exact design point a quarantine can blame.
 */
void
runShardWorker(int write_fd, Benchmark b,
               const std::vector<SystemConfig> &configs,
               const std::vector<std::uint32_t> &shard,
               const SupervisorOptions &opts, const ShardFault &fault)
{
    FlightRecorder &fr = FlightRecorder::global();
    fr.reset();
    fr.setPhase("startup");
    fr.note("shard [%u..%u): %zu point(s)", shard.front(),
            shard.back() + 1, shard.size());
    fr.armEmergency(write_fd, kTagFlight);

    if (fault.kind == ShardFault::Kind::ExitEarly)
        _exit(3);

    // The fork inherited copy-on-write snapshots of the parent's
    // metrics registry and profiler; reset both so the absolute
    // values this worker streams back are pure per-attempt deltas.
    MetricsRegistry::global().resetAll();
    Profiler::global().reset();

    // A worker-local trace recorder on the parent's epoch (steady
    // clock is system-wide, so child slices land directly on the
    // parent timeline), active only when the parent was recording.
    TraceEventRecorder *parentRec = TraceEventRecorder::active();
    std::unique_ptr<TraceEventRecorder> rec;
    if (parentRec) {
        rec = std::make_unique<TraceEventRecorder>(parentRec->epoch());
        TraceEventRecorder::setActive(rec.get());
    }
    auto slice = [&rec](const char *name, const char *cat,
                        TraceEventRecorder::Clock::time_point begin) {
        if (rec)
            rec->complete(name, cat, begin,
                          TraceEventRecorder::Clock::now(), 0);
    };
    auto now = [&rec] {
        return rec ? TraceEventRecorder::Clock::now()
                   : TraceEventRecorder::Clock::time_point{};
    };

    // This worker's own evaluator and store handle: the parent's
    // evaluator memo is inherited copy-on-write by fork but its
    // store fd must not be shared (two writers on one offset would
    // interleave), so the child opens the path itself. An unopenable
    // store degrades this shard to uncached, exactly like the
    // in-process engine.
    EvaluatorOptions evopts = opts.evaluator;
    evopts.resultStore.reset();
    std::shared_ptr<SweepCache> cache;
    if (!opts.resultStorePath.empty()) {
        fr.setPhase("store.open");
        auto t0 = now();
        cache = std::make_shared<SweepCache>();
        ResultStoreOptions ro;
        ro.fsyncOnCommit = opts.storeFsync;
        Status s = cache->open(opts.resultStorePath, ro);
        if (s.ok()) {
            evopts.resultStore = cache;
            fr.note("store '%s' open", opts.resultStorePath.c_str());
        } else {
            cache.reset();
            fr.note("store '%s' unopenable; shard runs uncached",
                    opts.resultStorePath.c_str());
        }
        slice("store.open", "worker", t0);
    }
    MissRateEvaluator ev(evopts);

    std::vector<SystemConfig> shardConfigs;
    shardConfigs.reserve(shard.size());
    for (std::uint32_t idx : shard)
        shardConfigs.push_back(configs[idx]);

    fr.setPhase("sim.batch");
    fr.note("sim.batch: %zu config(s)", shardConfigs.size());
    auto simBegin = now();
    std::vector<Expected<HierarchyStats>> miss =
        ev.tryMissStatsBatch(b, shardConfigs);
    slice("sim.batch", "worker", simBegin);
    fr.note("sim.batch done");

    // Commit to disk before claiming success on the pipe: a result
    // the parent saw must be one a resumed run can find in the
    // store.
    if (cache) {
        fr.setPhase("store.commit");
        auto t0 = now();
        cache->close();
        slice("store.commit", "worker", t0);
    }

    fr.setPhase("report");
    auto reportBegin = now();
    std::uint32_t sent = 0;
    for (std::size_t i = 0; i < shard.size(); ++i) {
        fr.setPoint(configs[shard[i]].label().c_str());
        if (shard[i] == fault.atIndex) {
            if (fault.kind == ShardFault::Kind::Crash) {
                // Through the armed handler: the emergency frame
                // carries this point's label before SIGSEGV kills
                // the process for real.
                raise(SIGSEGV);
            }
            if (fault.kind == ShardFault::Kind::Hang) {
                // A real hang never reaches a flush, but the drill
                // must exercise the frame path deterministically;
                // hangForever() then ignores SIGTERM so the
                // SIGKILL escalation still gets tested.
                fr.flush(write_fd, kTagFlight,
                         FlightRecorder::kReasonHang);
                hangForever();
            }
        }
        if (fault.kind == ShardFault::Kind::PartialWrite &&
            shard[i] >= fault.atIndex) {
            // Tear the stream mid-frame: a header promising 64
            // payload bytes, then 4 bytes of nothing, then death.
            std::string torn;
            putU32le(torn, 64);
            putU32le(torn, 0xdeadbeefu);
            torn.append("torn");
            ssize_t ignored =
                ::write(write_fd, torn.data(), torn.size());
            (void)ignored;
            _exit(1);
        }
        if (!writeFrame(write_fd, encodeResult(shard[i], miss[i])).ok())
            _exit(4); // parent gone; nothing sensible left to do
        ++sent;
    }
    slice("report", "worker", reportBegin);

    // Results are out; now the telemetry tail. Deactivate the
    // recorder first so the telemetry frames don't record themselves.
    fr.setPhase("telemetry");
    if (rec)
        TraceEventRecorder::setActive(nullptr);
    if (!writeFrame(write_fd, encodeMetrics()).ok())
        _exit(4);
    if (!writeFrame(write_fd, encodePhases()).ok())
        _exit(4);
    if (rec) {
        const std::vector<TraceEvent> events = rec->snapshot();
        for (std::size_t lo = 0; lo < events.size();
             lo += kEventsPerFrame) {
            const std::size_t hi =
                std::min(lo + kEventsPerFrame, events.size());
            if (!writeFrame(write_fd,
                            encodeEvents(std::span<const TraceEvent>(
                                events.data() + lo, hi - lo)))
                     .ok())
                _exit(4);
        }
    }
    fr.setPhase("done");
    fr.flush(write_fd, kTagFlight, FlightRecorder::kReasonClean);
    fr.disarm();
    if (!writeFrame(write_fd, encodeDone(sent)).ok())
        _exit(4);
}

// -----------------------------------------------------------------
// Parent side
// -----------------------------------------------------------------

/**
 * The retry/bisect/quarantine state machine of one supervised sweep.
 * Owns the per-index result slots — a quarantined point's slot holds
 * its WorkerCrash/WorkerTimeout status — which Explorer::evaluateAll
 * then reads as its statistics source. Shards run strictly
 * sequentially (one result-store writer at a time, and the
 * simulation is the bottleneck, not the supervision).
 */
class ShardSupervisor
{
  public:
    ShardSupervisor(Benchmark b,
                    const std::vector<SystemConfig> &configs,
                    const SupervisorOptions &opts)
        : bench_(b), configs_(configs), opts_(opts),
          slots_(configs.size()), faultFired_(opts.faults.faults.size(), 0),
          start_(std::chrono::steady_clock::now())
    {
    }

    void run()
    {
        ShardMetrics::get().sweeps.inc();
        const std::size_t n = configs_.size();
        const std::size_t per =
            std::max<std::size_t>(1, opts_.pointsPerShard);
        for (std::size_t lo = 0; lo < n; lo += per) {
            const std::size_t hi = std::min(lo + per, n);
            std::vector<std::uint32_t> shard;
            shard.reserve(hi - lo);
            for (std::size_t i = lo; i < hi; ++i)
                shard.push_back(static_cast<std::uint32_t>(i));
            resolve(shard);
        }
    }

    SupervisionStats &stats() { return stats_; }
    std::vector<ShardTimeline> &timeline() { return timeline_; }

    /** The resolved slots [lo, hi) after run(): an
     *  Explorer::BatchStats source. */
    std::vector<Expected<HierarchyStats>> results(std::size_t lo,
                                                  std::size_t hi) const
    {
        std::vector<Expected<HierarchyStats>> out;
        out.reserve(hi - lo);
        for (std::size_t i = lo; i < hi; ++i) {
            tlc_assert(slots_[i].has_value(),
                       "supervised sweep left index %zu unresolved", i);
            out.push_back(*slots_[i]);
        }
        return out;
    }

  private:
    /** The armed fault of @p shard, if any (None kind otherwise). */
    ShardFault armFault(const std::vector<std::uint32_t> &shard)
    {
        for (std::size_t f = 0; f < opts_.faults.faults.size(); ++f) {
            const ShardFault &fault = opts_.faults.faults[f];
            if (fault.kind == ShardFault::Kind::None)
                continue;
            if (fault.times >= 0 && faultFired_[f] >= fault.times)
                continue;
            if (std::find(shard.begin(), shard.end(), fault.atIndex) ==
                shard.end())
                continue;
            ++faultFired_[f];
            return fault;
        }
        return ShardFault{};
    }

    /** Fold one streamed counter delta into the global registry:
     *  once under the worker's namespace, once as the rollup. A
     *  name the parent already registered as a different kind is
     *  skipped (counter() would panic on the mismatch). */
    void mergeCounter(std::uint32_t worker_id, const std::string &name,
                      std::uint64_t delta)
    {
        if (delta == 0)
            return;
        auto &reg = MetricsRegistry::global();
        const auto kind = reg.kindOf(name);
        if (!kind.has_value() || *kind == MetricKind::Counter)
            reg.counter(name).inc(delta);
        reg.counter("worker." + std::to_string(worker_id) + "." + name)
            .inc(delta);
    }

    /**
     * One worker launch over @p shard. Results from intact frames
     * are kept even when the attempt as a whole fails — a crash
     * after reporting 30 of 32 points leaves only 2 to re-run —
     * and so is the telemetry that made it out: metric deltas roll
     * up, phase stats merge, trace slices land under this attempt's
     * pid, and the flight frame (if any) is kept in @p rec for the
     * timeline and the quarantine log.
     */
    WorkerOutcome attempt(const std::vector<std::uint32_t> &shard,
                          int attempt_no, ShardAttempt &rec)
    {
        ScopedTimer t(phase::kSupervisorShard);
        ++stats_.attempts;
        const ShardFault fault = armFault(shard);
        const std::uint32_t workerId = ++gWorkerSerial;
        rec.workerId = workerId;

        bool doneSeen = false;
        bool badFrame = false;
        std::optional<FlightInfo> flight;
        auto onFrame = [&](std::string_view payload) {
            if (payload.empty()) {
                badFrame = true;
                return;
            }
            switch (static_cast<std::uint8_t>(payload[0])) {
            case kTagDone:
                doneSeen = payload.size() == 5;
                badFrame = badFrame || payload.size() != 5;
                return;
            case kTagResult: {
                WireResult wr;
                if (!decodeResult(payload, wr) ||
                    wr.index >= slots_.size()) {
                    badFrame = true;
                    return;
                }
                slots_[wr.index] = std::move(*wr.result);
                ++rec.resultsDelivered;
                fireProgress(/*force=*/false);
                return;
            }
            case kTagMetrics: {
                WireMetrics wm;
                if (!decodeMetrics(payload, wm)) {
                    badFrame = true;
                    return;
                }
                ++stats_.metricFrames;
                ShardMetrics::get().metricFrames.inc();
                for (const auto &[name, delta] : wm.counters)
                    mergeCounter(workerId, name, delta);
                auto &reg = MetricsRegistry::global();
                for (const auto &[name, value] : wm.gauges) {
                    reg.gauge("worker." + std::to_string(workerId) +
                              "." + name)
                        .set(value);
                }
                return;
            }
            case kTagPhases: {
                std::vector<std::pair<std::string, PhaseStats>> ph;
                if (!decodePhases(payload, ph)) {
                    badFrame = true;
                    return;
                }
                ++stats_.phaseFrames;
                ShardMetrics::get().phaseFrames.inc();
                for (const auto &[name, s] : ph)
                    Profiler::global().merge(name, s);
                return;
            }
            case kTagEvents: {
                std::vector<TraceEvent> events;
                if (!decodeEvents(payload, events)) {
                    badFrame = true;
                    return;
                }
                ++stats_.eventFrames;
                ShardMetrics::get().eventFrames.inc();
                if (TraceEventRecorder *r =
                        TraceEventRecorder::active()) {
                    char name[96];
                    std::snprintf(
                        name, sizeof name,
                        "worker %u: shard [%u..%u) attempt %d",
                        workerId, shard.front(), shard.back() + 1,
                        attempt_no + 1);
                    r->import(events, workerId + 1, name);
                }
                return;
            }
            case kTagFlight: {
                FlightInfo info;
                if (!FlightRecorder::decodePayload(payload, kTagFlight,
                                                   info)) {
                    badFrame = true;
                    return;
                }
                ++stats_.flightFrames;
                ShardMetrics::get().flightFrames.inc();
                flight = std::move(info);
                return;
            }
            default:
                badFrame = true;
            }
        };

        const auto attemptBegin =
            TraceEventRecorder::Clock::now();
        WorkerOutcome outcome = superviseWorker(
            [&](int fd) {
                runShardWorker(fd, bench_, configs_, shard, opts_,
                               fault);
            },
            opts_.watchdog, onFrame);
        if (TraceEventRecorder *r = TraceEventRecorder::active()) {
            char name[96];
            std::snprintf(name, sizeof name,
                          "shard [%u..%u) worker %u: %s",
                          shard.front(), shard.back() + 1, workerId,
                          workerOutcomeKindName(outcome.kind));
            r->complete(name, "supervisor", attemptBegin,
                        TraceEventRecorder::Clock::now(), 0);
        }

        if (outcome.ok() && (badFrame || !doneSeen)) {
            // The pipe closed cleanly but the conversation did not
            // finish — treat like any other protocol violation.
            outcome.kind = WorkerOutcome::Kind::Protocol;
            outcome.detail = badFrame
                                 ? "worker sent a malformed frame"
                                 : "worker exited without a Done frame";
        }
        switch (outcome.kind) {
        case WorkerOutcome::Kind::Ok:
            break;
        case WorkerOutcome::Kind::Crash:
            ++stats_.crashes;
            break;
        case WorkerOutcome::Kind::Timeout:
            ++stats_.timeouts;
            break;
        case WorkerOutcome::Kind::Exit:
            ++stats_.exits;
            break;
        case WorkerOutcome::Kind::Protocol:
        case WorkerOutcome::Kind::ForkFailed:
            ++stats_.protocolErrors;
            break;
        }
        rec.outcome = workerOutcomeKindName(outcome.kind);
        rec.detail = outcome.detail;
        if (flight.has_value()) {
            rec.flightReason =
                FlightRecorder::reasonName(flight->reason);
            rec.flightPoint = flight->point;
            rec.flightPhase = flight->phase;
            if (!outcome.ok())
                lastFailedFlight_ = std::move(flight);
        }
        return outcome;
    }

    std::vector<std::uint32_t>
    unresolvedOf(const std::vector<std::uint32_t> &shard) const
    {
        std::vector<std::uint32_t> out;
        for (std::uint32_t idx : shard)
            if (!slots_[idx].has_value())
                out.push_back(idx);
        return out;
    }

    double elapsedSeconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

    /** Resolve every index of @p shard: retry, bisect, quarantine. */
    void resolve(const std::vector<std::uint32_t> &shard)
    {
        ++stats_.shards;
        ShardMetrics::get().shards.inc();
        const std::size_t tlIndex = timeline_.size();
        {
            ShardTimeline tl;
            tl.firstIndex = shard.front();
            tl.count = static_cast<std::uint32_t>(shard.size());
            timeline_.push_back(std::move(tl));
        }

        std::vector<std::uint32_t> pending = shard;
        const std::uint64_t backoffKey = shard.front();
        const int maxAttempts =
            1 + std::max(0, opts_.retry.maxRetries);
        for (int a = 0; a < maxAttempts; ++a) {
            ShardAttempt rec;
            rec.startSeconds = elapsedSeconds();
            WorkerOutcome outcome = attempt(pending, a, rec);
            rec.durationSeconds = elapsedSeconds() - rec.startSeconds;
            timeline_[tlIndex].attempts.push_back(std::move(rec));
            pending = unresolvedOf(pending);
            if (pending.empty()) {
                timeline_[tlIndex].resolution = "ok";
                fireProgress(/*force=*/true);
                return;
            }
            if (a + 1 == maxAttempts) {
                timeline_[tlIndex].resolution =
                    pending.size() == 1 ? "quarantined" : "bisected";
                giveUp(pending, outcome);
                return;
            }
            ++stats_.retries;
            ShardMetrics::get().retries.inc();
            const double wait =
                opts_.retry.backoffSeconds(a, backoffKey);
            ++stats_.backoffWaits;
            ShardMetrics::get().backoffWaits.inc();
            stats_.backoffSeconds += wait;
            timeline_[tlIndex].attempts.back().backoffSeconds = wait;
            {
                ScopedTimer t(phase::kSupervisorBackoff);
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(wait));
            }
        }
    }

    /** Out of retries: split and recurse, or quarantine the point. */
    void giveUp(const std::vector<std::uint32_t> &pending,
                const WorkerOutcome &outcome)
    {
        if (pending.size() == 1) {
            const std::uint32_t idx = pending.front();
            ++stats_.quarantined;
            ShardMetrics::get().quarantined.inc();
            const StatusCode code =
                outcome.kind == WorkerOutcome::Kind::Timeout
                    ? StatusCode::WorkerTimeout
                    : StatusCode::WorkerCrash;
            // The flight recorder of the last failed attempt says
            // what the worker was doing when it died; put that in
            // the quarantine entry so the report explains *why*,
            // not just which point.
            std::string flightCtx;
            if (lastFailedFlight_.has_value() &&
                (!lastFailedFlight_->point.empty() ||
                 !lastFailedFlight_->phase.empty())) {
                flightCtx = "; flight recorder (";
                flightCtx += FlightRecorder::reasonName(
                    lastFailedFlight_->reason);
                flightCtx += "): last point '";
                flightCtx += lastFailedFlight_->point;
                flightCtx += "' in phase '";
                flightCtx += lastFailedFlight_->phase;
                flightCtx += "'";
            }
            slots_[idx] = Expected<HierarchyStats>(statusf(
                code,
                "isolated worker %s; point quarantined after %d "
                "attempt(s)%s",
                outcome.detail.c_str(),
                1 + std::max(0, opts_.retry.maxRetries),
                flightCtx.c_str()));
            warn("supervisor: quarantined design point %s (%s%s)",
                 configs_[idx].label().c_str(),
                 outcome.detail.c_str(), flightCtx.c_str());
            fireProgress(/*force=*/true);
            return;
        }
        // The shard keeps killing workers and we cannot tell which
        // point is poisoned: split it and give each half a fresh
        // retry budget. log2(points) rounds isolate one bad point.
        ++stats_.bisections;
        ShardMetrics::get().bisections.inc();
        const std::size_t mid = pending.size() / 2;
        resolve(std::vector<std::uint32_t>(pending.begin(),
                                           pending.begin() + mid));
        resolve(std::vector<std::uint32_t>(pending.begin() + mid,
                                           pending.end()));
    }

    /**
     * Progress that streams: result frames fire this throttled to
     * one update per progressIntervalSeconds (so an isolated sweep
     * reports per point, like the in-process engine, not only per
     * resolved shard); resolution and quarantine fire it forced.
     */
    void fireProgress(bool force)
    {
        if (!opts_.progress)
            return;
        const double nowSeconds = elapsedSeconds();
        if (!force && nowSeconds - lastProgressSeconds_ <
                          opts_.progressIntervalSeconds)
            return;
        lastProgressSeconds_ = nowSeconds;
        SweepProgress p;
        p.total = configs_.size();
        for (const auto &slot : slots_) {
            if (slot.has_value()) {
                ++p.done;
                if (!slot->ok())
                    ++p.failed;
            }
        }
        p.elapsedSeconds = nowSeconds;
        p.etaSeconds =
            p.done ? p.elapsedSeconds *
                         static_cast<double>(p.total - p.done) /
                         static_cast<double>(p.done)
                   : 0.0;
        opts_.progress(p);
    }

    Benchmark bench_;
    const std::vector<SystemConfig> &configs_;
    const SupervisorOptions &opts_;
    SupervisionStats stats_;
    std::vector<ShardTimeline> timeline_;
    std::vector<std::optional<Expected<HierarchyStats>>> slots_;
    std::vector<int> faultFired_;
    std::optional<FlightInfo> lastFailedFlight_;
    std::chrono::steady_clock::time_point start_;
    double lastProgressSeconds_ = -1e9;
};

} // namespace

SupervisedSweep
supervisedEvaluateAll(Explorer &ex, Benchmark b,
                      const std::vector<SystemConfig> &configs,
                      FailureReport *report,
                      const SupervisorOptions &opts)
{
    tlc_assert(report != nullptr,
               "supervisedEvaluateAll requires a FailureReport: "
               "process isolation exists to keep going fail-soft");
    SupervisedSweep out;
    if (configs.empty())
        return out;

    ShardSupervisor sup(b, configs, opts);
    sup.run();
    // The workers simulated; pricing and collection are Explorer's
    // own batch loop, fed from the supervisor's slots, so points,
    // envelopes and report ordering are those of an in-process run.
    out.points = ex.evaluateAll(
        b, configs, report, [&sup](std::size_t lo, std::size_t hi) {
            return sup.results(lo, hi);
        });
    out.stats = sup.stats();
    out.timeline = std::move(sup.timeline());
    return out;
}

void
SupervisionStats::accumulate(const SupervisionStats &other)
{
    shards += other.shards;
    attempts += other.attempts;
    retries += other.retries;
    crashes += other.crashes;
    timeouts += other.timeouts;
    exits += other.exits;
    protocolErrors += other.protocolErrors;
    bisections += other.bisections;
    quarantined += other.quarantined;
    backoffWaits += other.backoffWaits;
    backoffSeconds += other.backoffSeconds;
    metricFrames += other.metricFrames;
    phaseFrames += other.phaseFrames;
    eventFrames += other.eventFrames;
    flightFrames += other.flightFrames;
}

std::string
supervisorTimelinesJson(const SupervisionStats &stats,
                        const std::vector<ShardTimeline> &timeline)
{
    std::ostringstream os;
    os << "{\n"
       << "  \"shards_resolved\": " << stats.shards << ",\n"
       << "  \"worker_launches\": " << stats.attempts << ",\n"
       << "  \"retries\": " << stats.retries << ",\n"
       << "  \"crashes\": " << stats.crashes << ",\n"
       << "  \"timeouts\": " << stats.timeouts << ",\n"
       << "  \"exits\": " << stats.exits << ",\n"
       << "  \"protocol_errors\": " << stats.protocolErrors << ",\n"
       << "  \"bisections\": " << stats.bisections << ",\n"
       << "  \"quarantined\": " << stats.quarantined << ",\n"
       << "  \"backoff_waits\": " << stats.backoffWaits << ",\n"
       << "  \"backoff_seconds\": " << jsonNumber(stats.backoffSeconds)
       << ",\n"
       << "  \"metric_frames\": " << stats.metricFrames << ",\n"
       << "  \"phase_frames\": " << stats.phaseFrames << ",\n"
       << "  \"event_frames\": " << stats.eventFrames << ",\n"
       << "  \"flight_frames\": " << stats.flightFrames << ",\n"
       << "  \"shards\": [";
    for (std::size_t i = 0; i < timeline.size(); ++i) {
        const ShardTimeline &tl = timeline[i];
        os << (i ? ",\n" : "\n") << "    {\n"
           << "      \"first_index\": " << tl.firstIndex << ",\n"
           << "      \"count\": " << tl.count << ",\n"
           << "      \"resolution\": " << jsonQuote(tl.resolution)
           << ",\n"
           << "      \"attempts\": [";
        for (std::size_t a = 0; a < tl.attempts.size(); ++a) {
            const ShardAttempt &at = tl.attempts[a];
            os << (a ? ",\n" : "\n") << "        {"
               << "\"worker\": " << at.workerId
               << ", \"outcome\": " << jsonQuote(at.outcome)
               << ", \"detail\": " << jsonQuote(at.detail)
               << ", \"start_seconds\": "
               << jsonNumber(at.startSeconds)
               << ", \"duration_seconds\": "
               << jsonNumber(at.durationSeconds)
               << ", \"results\": " << at.resultsDelivered
               << ", \"backoff_seconds\": "
               << jsonNumber(at.backoffSeconds)
               << ", \"flight_reason\": " << jsonQuote(at.flightReason)
               << ", \"flight_point\": " << jsonQuote(at.flightPoint)
               << ", \"flight_phase\": " << jsonQuote(at.flightPhase)
               << "}";
        }
        os << (tl.attempts.empty() ? "]\n" : "\n      ]\n")
           << "    }";
    }
    os << (timeline.empty() ? "]\n" : "\n  ]\n") << "}";
    return os.str();
}

bool
supervisorOptionsFromArgs(const ArgParser &args, SupervisorOptions *out)
{
    const std::string mode = args.getString("isolate", "none");
    if (mode != "none" && mode != "process") {
        fatal("--isolate must be 'process' or 'none' (got '%s')",
              mode.c_str());
    }
    out->pointsPerShard =
        static_cast<std::size_t>(args.getInt("shard-points", 32));
    out->watchdog.timeoutSeconds = args.getDouble("shard-timeout", 60.0);
    out->retry.maxRetries =
        static_cast<int>(args.getInt("max-retries", 2));
    out->storeFsync = args.getBool("store-fsync", false);

    const int times = static_cast<int>(args.getInt("inject-times", -1));
    auto inject = [&](const char *key, ShardFault::Kind kind) {
        if (!args.has(key))
            return;
        ShardFault f;
        f.kind = kind;
        f.atIndex = static_cast<std::uint32_t>(args.getInt(key, 0));
        f.times = times;
        out->faults.faults.push_back(f);
    };
    inject("inject-crash-at", ShardFault::Kind::Crash);
    inject("inject-hang-at", ShardFault::Kind::Hang);
    inject("inject-partial-at", ShardFault::Kind::PartialWrite);
    return mode == "process";
}

namespace {

/** The drivers' evaluator: --refs, plus the result store when this
 *  process is its writer (in process; under isolation the workers
 *  open it themselves). */
EvaluatorOptions
driverEvaluatorOptions(const cli::SweepFlags &flags, bool isolate)
{
    EvaluatorOptions eo;
    eo.traceRefs = flags.refs;
    if (!flags.resultStore.empty() && !isolate) {
        auto store = std::make_shared<SweepCache>();
        ResultStoreOptions ro;
        ro.fsyncOnCommit = flags.storeFsync;
        Status s = store->open(flags.resultStore, ro);
        if (!s.ok())
            fatal("result store: %s", s.message().c_str());
        eo.resultStore = std::move(store);
    }
    return eo;
}

} // namespace

DriverSweep::DriverSweep(const ArgParser &args,
                         const cli::SweepFlags &flags)
    : isolate_(supervisorOptionsFromArgs(args, &sopts_)),
      progress_(flags.progress), start_(std::chrono::steady_clock::now()),
      evaluator_(driverEvaluatorOptions(flags, isolate_)),
      explorer_(evaluator_)
{
    sopts_.evaluator.traceRefs = flags.refs;
    sopts_.resultStorePath = flags.resultStore;
}

std::vector<DesignPoint>
DriverSweep::sweep(Benchmark b, const SystemAssumptions &assume,
                   bool include_two_level,
                   const std::string &progress_label)
{
    std::vector<SystemConfig> configs =
        DesignSpace::enumerate(assume, true, include_two_level);
    std::function<void(const SweepProgress &)> progress;
    if (progress_)
        progress = stderrProgressPrinter(progress_label);

    std::vector<DesignPoint> points;
    if (isolate_) {
        SupervisorOptions so = sopts_;
        so.progress = std::move(progress);
        SupervisedSweep sw =
            supervisedEvaluateAll(explorer_, b, configs, &report_, so);
        stats_.accumulate(sw.stats);
        timeline_.insert(timeline_.end(),
                         std::make_move_iterator(sw.timeline.begin()),
                         std::make_move_iterator(sw.timeline.end()));
        points = std::move(sw.points);
    } else {
        SweepRequest req;
        req.configs = std::move(configs);
        req.benchmarks = {b};
        req.report = &report_;
        req.progress = std::move(progress);
        points = std::move(explorer_.evaluateAll(req).front().points);
    }
    pointsPriced_ += points.size();
    return points;
}

void
DriverSweep::finish(cli::TelemetrySession &telemetry, int argc,
                    const char *const *argv,
                    const std::string &workload) const
{
    if (!report_.empty())
        std::fputs(report_.summary().c_str(), stderr);
    cli::TelemetrySession::RunSummary summary;
    summary.workload = workload;
    summary.traceRefs = evaluator_.traceRefs();
    summary.pointsPriced = pointsPriced_;
    summary.failures = report_.size();
    summary.wallSeconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start_)
                              .count();
    if (isolate_)
        summary.supervisorJson = supervisorTimelinesJson(stats_, timeline_);
    telemetry.finish(argc, argv, summary);
}

} // namespace tlc
