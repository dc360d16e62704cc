#include "workloads.hh"

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>

#include "cache/single_level.hh"
#include "cache/two_level.hh"
#include "core/batch_engine.hh"
#include "core/explorer.hh"
#include "core/figures.hh"
#include "core/shard_runner.hh"
#include "core/sweep_cache.hh"
#include "requests.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/sweep_codec.hh"
#include "service/sweep_service.hh"
#include "trace/io.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace perfbench {

using namespace tlc;
namespace fs = std::filesystem;

namespace {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
warmupOf(std::uint64_t refs)
{
    // MissRateEvaluator's warmup: the default 10% leading fraction.
    return static_cast<std::uint64_t>(0.1 * static_cast<double>(refs));
}

template <typename T>
std::uint64_t
mix(std::uint64_t h, const T &v)
{
    char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    return fnv1a(std::string_view(bytes, sizeof(T)), h);
}

std::uint64_t
mixStats(std::uint64_t h, const HierarchyStats &s)
{
    for (std::uint64_t v : {s.instrRefs, s.dataRefs, s.l1iMisses,
                            s.l1dMisses, s.l2Hits, s.l2Misses, s.swaps,
                            s.offchipWritebacks})
        h = mix(h, v);
    return h;
}

/** Digest of priced points and their envelope, in order: what a
 *  figure plots. */
std::uint64_t
mixSweep(std::uint64_t h, const std::vector<DesignPoint> &points,
         const Envelope &envelope)
{
    for (const DesignPoint &p : points) {
        h = fnv1a(p.config.label(), h);
        h = mix(h, p.areaRbe);
        h = mix(h, p.tpi.tpi);
        h = mixStats(h, p.miss);
    }
    for (const EnvelopePoint &e : envelope.points()) {
        h = fnv1a(e.label, h);
        h = mix(h, e.area);
        h = mix(h, e.tpi);
    }
    return h;
}

bool
samePoint(const DesignPoint &a, const DesignPoint &b)
{
    return a.config.label() == b.config.label() &&
           a.config.missKeyString() == b.config.missKeyString() &&
           a.areaRbe == b.areaRbe && a.tpi.tpi == b.tpi.tpi &&
           mixStats(0, a.miss) == mixStats(0, b.miss);
}

/** Lane flavour of a configuration, as the batch kernels group it. */
const char *
flavourOf(const SystemConfig &c)
{
    if (!c.hasL2())
        return "single";
    return c.assume.policy == TwoLevelPolicy::Exclusive ? "exclusive"
                                                        : "inclusive";
}

void
addStats(Counters &c, const HierarchyStats &s)
{
    c["cache.l1_misses"] += static_cast<double>(s.l1Misses());
    c["cache.l2_hits"] += static_cast<double>(s.l2Hits);
    c["cache.l2_misses"] += static_cast<double>(s.l2Misses);
    c["cache.swaps"] += static_cast<double>(s.swaps);
    c["cache.writebacks"] += static_cast<double>(s.offchipWritebacks);
}

/** Scoped worker-team width (restores the previous override). */
class WidthScope
{
  public:
    explicit WidthScope(unsigned n) : prev_(parallelWorkerOverride())
    {
        setParallelWorkerCount(n);
    }
    ~WidthScope() { setParallelWorkerCount(prev_); }

    WidthScope(const WidthScope &) = delete;
    WidthScope &operator=(const WidthScope &) = delete;

  private:
    unsigned prev_;
};

/**
 * The replay's stand-in for the evaluator: decodes each trace once
 * and simulates memo-missing configurations through the batch
 * engine, one call per lane flavour.
 */
class ReplayEngine
{
  public:
    ReplayEngine(Tracer &tracer, Counters &counters, std::uint64_t refs,
                 const std::map<Benchmark, std::string> &files)
        : tracer_(tracer), c_(counters), refs_(refs), files_(files)
    {
    }

    const TraceBuffer &trace(Benchmark b)
    {
        auto it = traces_.find(b);
        if (it != traces_.end())
            return it->second;
        TraceBuffer buf;
        {
            ScopedSpan s(tracer_, "trace.decode");
            Status st = loadTraceFile(files_.at(b), buf);
            if (!st.ok())
                fatal("replay: %s", st.toString().c_str());
        }
        c_["trace.refs"] += static_cast<double>(buf.size());
        return traces_.emplace(b, std::move(buf)).first->second;
    }

    /** Simulate @p configs on @p b (every one not yet simulated). */
    void simulate(Benchmark b, const std::vector<SystemConfig> &configs,
                  std::map<std::string, HierarchyStats> &memo)
    {
        std::map<std::string, std::vector<SystemConfig>> groups;
        std::set<std::string> queued;
        for (const SystemConfig &c : configs) {
            std::string k = memoKey(b, c);
            if (!memo.count(k) && queued.insert(k).second)
                groups[flavourOf(c)].push_back(c);
        }
        for (auto &[flavour, group] : groups) {
            const TraceBuffer &t = trace(b);
            const std::string span = "cache." + flavour;
            BatchEngine::Result r;
            {
                ScopedSpan s(tracer_, span.c_str());
                r = BatchEngine::simulateConfigs(t, warmupOf(refs_), group);
            }
            const double lanes = static_cast<double>(group.size());
            c_["cache.lane_refs"] += lanes * static_cast<double>(t.size());
            c_["cache." + flavour + ".lane_refs"] +=
                lanes * static_cast<double>(t.size());
            c_["cache.flat_lanes"] += static_cast<double>(r.flatLanes);
            c_["cache.generic_lanes"] += static_cast<double>(r.genericLanes);
            c_["core.simulated_points"] += lanes;
            for (std::size_t i = 0; i < group.size(); ++i) {
                addStats(c_, r.stats[i]);
                memo.emplace(memoKey(b, group[i]), r.stats[i]);
            }
        }
    }

    static std::string memoKey(Benchmark b, const SystemConfig &c)
    {
        return std::string(Workloads::info(b).name) + "|" +
               c.missKeyString();
    }

  private:
    Tracer &tracer_;
    Counters &c_;
    std::uint64_t refs_;
    const std::map<Benchmark, std::string> &files_;
    std::map<Benchmark, TraceBuffer> traces_;
};

/**
 * Run the timing model for every geometry of @p cfg not yet seen on
 * @p ex (later lookups hit the explorer's memo), and with @p area the
 * area model, each under its own span.
 */
void
modelPoint(Tracer &tracer, Counters &c, Explorer &ex,
           std::set<Explorer::TimingKey> &seen, const SystemConfig &cfg,
           bool area)
{
    const std::uint32_t line = cfg.assume.lineBytes;
    std::vector<Explorer::TimingKey> geoms{
        Explorer::timingKey(cfg.l1Bytes, cfg.assume.l1Assoc, line)};
    if (cfg.hasL2())
        geoms.push_back(
            Explorer::timingKey(cfg.l2Bytes, cfg.assume.l2Assoc, line));
    for (const Explorer::TimingKey &g : geoms) {
        if (!seen.insert(g).second)
            continue;
        ScopedSpan s(tracer, "timing.model");
        (void)ex.timingOf(std::get<0>(g), std::get<1>(g), std::get<2>(g));
        c["timing.model_calls"] += 1;
    }
    if (area) {
        ScopedSpan s(tracer, "area.model");
        (void)ex.areaOf(cfg);
        c["area.model_calls"] += 1;
    }
}

/** Price @p configs with their simulated @p stats, as the explorer
 *  does, the models first under their own spans. */
std::vector<DesignPoint>
pricePoints(Tracer &tracer, Counters &c, Explorer &ex,
            std::set<Explorer::TimingKey> &seen,
            const std::vector<SystemConfig> &configs,
            const std::vector<HierarchyStats> &stats)
{
    std::vector<DesignPoint> points;
    points.reserve(configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        modelPoint(tracer, c, ex, seen, configs[i], true);
        ScopedSpan s(tracer, "core.price");
        points.push_back(ex.pricePoint(configs[i], stats[i]));
    }
    c["core.points"] += static_cast<double>(points.size());
    return points;
}

// --- paper -------------------------------------------------------------

/** Figures 3-4 sweep the single-level space only. */
bool
singleOnly(const FigureSpec &f)
{
    return f.benchTarget == "bench_fig03_04_single_level";
}

/** The workload's only call into the sweep pipeline. */
std::vector<DesignPoint>
sweepPaper(Explorer &ex, Benchmark b, const SystemAssumptions &assume,
           bool two_level, FailureReport &report)
{
    return ex.sweep(b, assume, true, two_level, &report);
}

class PaperWorkload final : public Workload
{
  public:
    explicit PaperWorkload(Environment env) : Workload(std::move(env))
    {
        for (const FigureSpec &f : figureCatalog()) {
            if (f.kind == ExhibitKind::TpiScatter)
                figures_.push_back(&f);
        }
    }

    std::uint64_t traceRefs() const override { return 1000000; }

    void setup(Tracer &tracer) override
    {
        freshSetDir();
        writeTraces(tracer);
    }
    void teardown() override { removeSetDir(); }

    PassResult pass() override
    {
        PassResult r;
        samples_.clear();
        EvaluatorOptions eo;
        eo.traceRefs = traceRefs();
        eo.traceFiles = files_;
        MissRateEvaluator ev(eo);
        FailureReport report;
        std::uint64_t sampleRng = env_.seed * 0x9e3779b97f4a7c15ull + 1;

        // A request is one figure, as `figure_runner --figure=` makes
        // it: every benchmark's sweep and envelope, on a fresh
        // Explorer over the shared evaluator.
        const double t0 = nowSeconds();
        for (const FigureSpec *f : figures_) {
            const std::size_t memo0 = ev.memoSize();
            const double r0 = nowSeconds();
            Explorer ex(ev);
            for (Benchmark b : f->workloads) {
                std::vector<DesignPoint> pts = sweepPaper(
                    ex, b, f->assume, !singleOnly(*f), report);
                r.digest = mixSweep(r.digest, pts, Explorer::envelopeOf(pts));
                r.points += pts.size();
                if (f->compareSingleLevel && !singleOnly(*f)) {
                    std::vector<DesignPoint> single =
                        sweepPaper(ex, b, f->assume, false, report);
                    r.digest = mixSweep(r.digest, single,
                                        Explorer::envelopeOf(single));
                    r.points += single.size();
                }
                if (!pts.empty()) {
                    sampleRng = sampleRng * 6364136223846793005ull +
                                1442695040888963407ull;
                    const DesignPoint &p =
                        pts[(sampleRng >> 33) % pts.size()];
                    samples_.push_back({b, p.config, p.miss});
                }
            }
            r.reqMs.push_back((nowSeconds() - r0) * 1e3);
            r.warm.push_back(ev.memoSize() == memo0);
        }
        r.wallSeconds = nowSeconds() - t0;
        r.laneRefs = ev.memoSize() * traceRefs();
        r.failed = report.size();
        r.attempted = r.points + r.failed + figures_.size();
        return r;
    }

    CheckResult check() override
    {
        // Re-simulate the sampled points point-major through the OO
        // Hierarchy reference; stats must be bit-equal.
        CheckResult out;
        EvaluatorOptions eo;
        eo.traceRefs = traceRefs();
        eo.traceFiles = files_;
        MissRateEvaluator ev(eo);
        std::set<std::string> done;
        for (const Sample &s : samples_) {
            if (!done.insert(ReplayEngine::memoKey(s.bench, s.config))
                     .second)
                continue;
            std::unique_ptr<Hierarchy> h;
            if (s.config.hasL2()) {
                h = std::make_unique<TwoLevelHierarchy>(
                    s.config.l1Params(), s.config.l2Params(),
                    s.config.assume.policy);
            } else {
                h = std::make_unique<SingleLevelHierarchy>(
                    s.config.l1Params());
            }
            ev.simulate(s.bench, *h);
            ++out.checked;
            if (mixStats(0, h->stats()) != mixStats(0, s.stats)) {
                ++out.mismatches;
                out.notes.push_back(std::string("paper: ") +
                                    Workloads::info(s.bench).name + " " +
                                    s.config.label() +
                                    " differs from the Hierarchy reference");
            }
        }
        return out;
    }

    std::uint64_t replay(Tracer &tracer, Counters &c,
                         CheckResult &) override
    {
        WidthScope width(1);
        MissRateEvaluator unused(EvaluatorOptions{});
        ReplayEngine engine(tracer, c, traceRefs(), files_);
        std::map<std::string, HierarchyStats> memo;
        std::uint64_t digest = 0;
        for (const FigureSpec *f : figures_) {
            ScopedSpan req(tracer, "bench.request");
            Explorer ex(unused);
            std::set<Explorer::TimingKey> seen;
            for (Benchmark b : f->workloads) {
                auto sweep = [&](bool two_level) {
                    std::vector<SystemConfig> configs =
                        DesignSpace::enumerate(f->assume, true, two_level);
                    engine.simulate(b, configs, memo);
                    std::vector<HierarchyStats> stats;
                    for (const SystemConfig &cfg : configs)
                        stats.push_back(
                            memo.at(ReplayEngine::memoKey(b, cfg)));
                    std::vector<DesignPoint> pts =
                        pricePoints(tracer, c, ex, seen, configs, stats);
                    Envelope env = [&] {
                        ScopedSpan s(tracer, "core.envelope");
                        return Explorer::envelopeOf(pts);
                    }();
                    digest = mixSweep(digest, pts, env);
                };
                sweep(!singleOnly(*f));
                if (f->compareSingleLevel && !singleOnly(*f))
                    sweep(false);
            }
        }
        return digest;
    }

  private:
    struct Sample
    {
        Benchmark bench;
        SystemConfig config;
        HierarchyStats stats;
    };

    std::vector<const FigureSpec *> figures_;
    std::vector<Sample> samples_;
};

// --- served ------------------------------------------------------------

/** The workload's only call into the sweep pipeline. */
Expected<service::ServiceReply>
sweepServed(const std::string &socket, const std::string &document)
{
    return service::submitSweepRequest(socket, document);
}

/** The numeric fields of a "tlc-sweep-stats-v1" document. */
std::map<std::string, double>
statsFields(const std::string &stats_json)
{
    std::map<std::string, double> out;
    Expected<JsonValue> doc = jsonParse(stats_json);
    if (doc.ok() && doc.value().isObject()) {
        for (const JsonValue::Member &m : doc.value().members()) {
            if (m.second.isNumber())
                out[m.first] = m.second.number();
        }
    }
    return out;
}

class ServedWorkload final : public Workload
{
  public:
    explicit ServedWorkload(Environment env)
        : Workload(std::move(env)),
          sequence_(makeRequestSequence(env_.seed, SequenceSpec{}))
    {
    }

    std::uint64_t traceRefs() const override { return 250000; }

    void setup(Tracer &tracer) override
    {
        freshSetDir();
        writeTraces(tracer);
        {
            ScopedSpan s(tracer, "service.open_store");
            service::SweepServiceOptions so;
            so.resultStorePath = setDir() + "/store.tlrs";
            service_ = std::make_unique<service::SweepService>(so);
            Status st = service_->init();
            if (!st.ok())
                fatal("served: %s", st.toString().c_str());
        }
        {
            ScopedSpan s(tracer, "service.daemon_start");
            daemon_ = std::make_unique<service::SweepDaemon>(
                *service_, setDir() + "/tlcd.sock");
            Status st = daemon_->start();
            if (!st.ok())
                fatal("served: %s", st.toString().c_str());
        }
        // Prime: load every trace into the daemon's pool with a
        // single-level configuration, which the sequence never asks
        // for.
        ScopedSpan s(tracer, "service.prime");
        for (Benchmark b : Workloads::all()) {
            ServedRequest prime;
            prime.id = 1000000;
            prime.bench = b;
            prime.configs = {{1024, 0}};
            auto reply = sweepServed(
                daemon_->socketPath(),
                requestDocument(prime, traceRefs(), files_));
            if (!reply.ok())
                fatal("served: priming: %s",
                      reply.status().toString().c_str());
        }
        documents_.clear();
        for (const ServedRequest &r : sequence_)
            documents_.push_back(requestDocument(r, traceRefs(), files_));
    }

    void teardown() override
    {
        if (daemon_)
            daemon_->stop();
        daemon_.reset();
        service_.reset();
        removeSetDir();
    }

    PassResult pass() override
    {
        PassResult r;
        responses_.assign(sequence_.size(), std::string());
        const double t0 = nowSeconds();
        for (std::size_t i = 0; i < sequence_.size(); ++i) {
            const double r0 = nowSeconds();
            auto reply = sweepServed(daemon_->socketPath(), documents_[i]);
            const double ms = (nowSeconds() - r0) * 1e3;
            ++r.attempted;
            if (!reply.ok()) {
                ++r.failed;
                continue;
            }
            auto stats = statsFields(reply.value().statsJson);
            const auto points =
                static_cast<std::uint64_t>(stats["points_priced"]);
            r.reqMs.push_back(ms);
            r.warm.push_back(stats["store_misses"] == 0.0);
            r.points += points;
            r.attempted += points;
            r.failed += static_cast<std::uint64_t>(stats["failures"]);
            r.laneRefs +=
                static_cast<std::uint64_t>(stats["store_appends"]) *
                traceRefs();
            responses_[i] = std::move(reply.value().responseJson);
        }
        r.wallSeconds = nowSeconds() - t0;
        for (const std::string &response : responses_)
            r.digest = fnv1a(response, r.digest);
        return r;
    }

    CheckResult check() override
    {
        // Every repeat matches its first answer, and every answer
        // matches an in-process run of the same document.
        CheckResult out;
        service::SweepService direct;
        Status st = direct.init();
        if (!st.ok())
            fatal("served: %s", st.toString().c_str());
        for (std::size_t i = 0; i < sequence_.size(); ++i) {
            const ServedRequest &q = sequence_[i];
            ++out.checked;
            if (q.repeat) {
                if (responses_[i] != responses_[q.id]) {
                    ++out.mismatches;
                    out.notes.push_back("served: request " +
                                        std::to_string(i) +
                                        " differs from its first answer");
                }
                continue;
            }
            auto spec = service::sweepRequestFromJson(documents_[i]);
            std::string expect =
                spec.ok() ? service::sweepResponseJson(
                                spec.value(),
                                direct.run(spec.value()).outcome)
                          : spec.status().toString();
            if (responses_[i] != expect) {
                ++out.mismatches;
                out.notes.push_back("served: request " + std::to_string(i) +
                                    " differs from SweepService::run");
            }
        }
        return out;
    }

    std::uint64_t replay(Tracer &tracer, Counters &c,
                         CheckResult &checks) override
    {
        WidthScope width(1);
        MissRateEvaluator unused(EvaluatorOptions{});
        ReplayEngine engine(tracer, c, traceRefs(), files_);
        SweepCache &store = *service_->store();
        std::uint64_t digest = 0;
        double transportMs = 0.0;
        for (std::size_t i = 0; i < sequence_.size(); ++i) {
            ScopedSpan req(tracer, "bench.request");
            const double d0 = nowSeconds();
            Expected<service::SweepRequestSpec> spec =
                [&] {
                    ScopedSpan s(tracer, "service.decode");
                    return service::sweepRequestFromJson(documents_[i]);
                }();
            const double decodeS = nowSeconds() - d0;
            if (!spec.ok())
                fatal("served: %s", spec.status().toString().c_str());
            const service::SweepRequestSpec &sp = spec.value();

            service::SweepOutcome outcome;
            {
                ScopedSpan s(tracer, "service.engine");
                const std::vector<SystemConfig> configs =
                    sp.materializeConfigs();
                Explorer ex(unused);
                std::set<Explorer::TimingKey> seen;
                for (Benchmark b : sp.benchmarks) {
                    const std::string traceId = SweepCache::traceIdentity(
                        b, sp.traceRefs, sp.traceFiles.at(b));
                    std::vector<std::string> keys;
                    std::vector<std::optional<HierarchyStats>> found;
                    for (const SystemConfig &cfg : configs) {
                        keys.push_back(SweepCache::keyText(
                            traceId, warmupOf(sp.traceRefs), cfg));
                        ScopedSpan l(tracer, "util.store_lookup");
                        found.push_back(store.lookup(keys.back()));
                    }
                    std::vector<SystemConfig> missing;
                    for (std::size_t k = 0; k < configs.size(); ++k) {
                        if (!found[k])
                            missing.push_back(configs[k]);
                    }
                    c["service.store_hits"] +=
                        static_cast<double>(configs.size() - missing.size());
                    c["service.store_misses"] +=
                        static_cast<double>(missing.size());
                    std::map<std::string, HierarchyStats> memo;
                    engine.simulate(b, missing, memo);
                    std::vector<HierarchyStats> stats;
                    for (std::size_t k = 0; k < configs.size(); ++k) {
                        if (found[k]) {
                            stats.push_back(*found[k]);
                            continue;
                        }
                        stats.push_back(memo.at(
                            ReplayEngine::memoKey(b, configs[k])));
                        ScopedSpan a(tracer, "util.store_append");
                        store.store(keys[k], stats.back());
                        c["service.store_appends"] += 1;
                    }
                    service::ServedBenchmarkSweep sweep;
                    sweep.benchmark = b;
                    sweep.points =
                        pricePoints(tracer, c, ex, seen, configs, stats);
                    {
                        ScopedSpan e(tracer, "core.envelope");
                        sweep.envelope = Explorer::envelopeOf(sweep.points);
                    }
                    outcome.sweeps.push_back(std::move(sweep));
                }
            }
            const double e0 = nowSeconds();
            std::string response = [&] {
                ScopedSpan s(tracer, "service.encode");
                return service::sweepResponseJson(sp, outcome);
            }();
            const double encodeS = nowSeconds() - e0;
            c["service.response_kb"] +=
                static_cast<double>(response.size()) / 1024.0;

            // The same document over the socket: the daemon now finds
            // every point in the store, so what it adds beyond its
            // own engine time and the codec is transport.
            const double s0 = nowSeconds();
            auto reply = [&] {
                ScopedSpan s(tracer, "service.submit");
                return sweepServed(daemon_->socketPath(), documents_[i]);
            }();
            const double submitS = nowSeconds() - s0;
            ++checks.checked;
            if (!reply.ok() || reply.value().responseJson != response) {
                ++checks.mismatches;
                checks.notes.push_back(
                    "served replay: request " + std::to_string(i) +
                    " differs between the layer calls and the daemon");
                continue;
            }
            transportMs +=
                1e3 * (submitS - decodeS - encodeS -
                       statsFields(reply.value().statsJson)["wall_seconds"]);
            digest = fnv1a(response, digest);
        }
        const double n = static_cast<double>(sequence_.size());
        c["service.transport_ms"] = transportMs / n;
        c["service.response_kb"] /= n;
        c["util.store_bytes"] = static_cast<double>(
            fs::file_size(setDir() + "/store.tlrs"));
        return digest;
    }

  private:
    std::vector<ServedRequest> sequence_;
    std::vector<std::string> documents_;
    std::vector<std::string> responses_;
    std::unique_ptr<service::SweepService> service_;
    std::unique_ptr<service::SweepDaemon> daemon_;
};

// --- isolated ----------------------------------------------------------

/** The workload's only call into the sweep pipeline. */
SupervisedSweep
sweepIsolated(Explorer &ex, Benchmark b,
              const std::vector<SystemConfig> &configs,
              FailureReport &report, const SupervisorOptions &opts)
{
    return supervisedEvaluateAll(ex, b, configs, &report, opts);
}

class IsolatedWorkload final : public Workload
{
  public:
    explicit IsolatedWorkload(Environment env)
        : Workload(std::move(env)),
          configs_(DesignSpace::enumerate(SystemAssumptions{}))
    {
    }

    std::uint64_t traceRefs() const override { return 1000000; }

    void setup(Tracer &tracer) override
    {
        freshSetDir();
        writeTraces(tracer);
    }
    void teardown() override { removeSetDir(); }

    PassResult pass() override
    {
        PassResult r;
        cold_.clear();
        MissRateEvaluator ev(evaluatorOptions());
        Explorer ex(ev);
        FailureReport report;
        const SupervisorOptions so = supervisorOptions();
        const double t0 = nowSeconds();
        // A cold sweep of every benchmark into an empty store, then
        // the resumed sweep a restarted run makes against it.
        for (bool resume : {false, true}) {
            for (Benchmark b : Workloads::all()) {
                const double r0 = nowSeconds();
                SupervisedSweep sw = sweepIsolated(ex, b, configs_, report, so);
                r.digest = mixSweep(r.digest, sw.points,
                                    Explorer::envelopeOf(sw.points));
                r.reqMs.push_back((nowSeconds() - r0) * 1e3);
                r.warm.push_back(resume);
                r.points += sw.points.size();
                r.failed += sw.stats.retries + sw.stats.quarantined;
                if (!resume) {
                    r.laneRefs += sw.points.size() * traceRefs();
                    cold_[b] = std::move(sw.points);
                } else if (!samePoints(cold_[b], sw.points)) {
                    ++r.failed;
                }
            }
        }
        r.wallSeconds = nowSeconds() - t0;
        r.failed += report.size();
        r.attempted = r.points + r.failed + 2 * Workloads::all().size();
        return r;
    }

    CheckResult check() override
    {
        // Points equal the in-process engine's.
        CheckResult out;
        MissRateEvaluator ev(evaluatorOptions());
        Explorer ex(ev);
        for (Benchmark b : Workloads::all()) {
            ++out.checked;
            std::vector<DesignPoint> expect = ex.evaluateAll(b, configs_);
            if (!samePoints(cold_[b], expect)) {
                ++out.mismatches;
                out.notes.push_back(
                    std::string("isolated: ") + Workloads::info(b).name +
                    " differs from Explorer::evaluateAll");
            }
        }
        return out;
    }

    std::uint64_t replay(Tracer &tracer, Counters &c,
                         CheckResult &checks) override
    {
        WidthScope width(1);
        MissRateEvaluator ev(evaluatorOptions());
        Explorer ex(ev);
        std::set<Explorer::TimingKey> seen;
        FailureReport report;
        const SupervisorOptions so = supervisorOptions();
        std::uint64_t digest = 0;
        double attemptMs = 0.0;
        for (bool resume : {false, true}) {
            for (Benchmark b : Workloads::all()) {
                ScopedSpan req(tracer, "bench.request");
                // Run the timing model up front, so the supervisor's
                // own pricing finds the explorer's memo warm.
                for (const SystemConfig &cfg : configs_)
                    modelPoint(tracer, c, ex, seen, cfg, false);
                SupervisedSweep sw = [&] {
                    ScopedSpan s(tracer, "util.supervise");
                    return sweepIsolated(ex, b, configs_, report, so);
                }();
                Envelope env = [&] {
                    ScopedSpan s(tracer, "core.envelope");
                    return Explorer::envelopeOf(sw.points);
                }();
                c["core.points"] += static_cast<double>(sw.points.size());
                c["util.shards"] += static_cast<double>(sw.stats.shards);
                c["util.worker_attempts"] +=
                    static_cast<double>(sw.stats.attempts);
                c["util.worker_retries"] +=
                    static_cast<double>(sw.stats.retries);
                for (const ShardTimeline &t : sw.timeline) {
                    for (const ShardAttempt &a : t.attempts)
                        attemptMs += a.durationSeconds * 1e3;
                }
                if (!resume) {
                    c["core.simulated_points"] +=
                        static_cast<double>(sw.points.size());
                    for (const DesignPoint &p : sw.points)
                        addStats(c, p.miss);
                }
                ++checks.checked;
                if (sw.stats.retries + sw.stats.quarantined != 0) {
                    ++checks.mismatches;
                    checks.notes.push_back("isolated replay: retries");
                }
                digest = mixSweep(digest, sw.points, env);
            }
        }
        checks.mismatches += report.size();
        c["util.store_bytes"] =
            static_cast<double>(fs::file_size(so.resultStorePath));
        if (c["util.worker_attempts"] > 0)
            c["util.worker_attempt_ms"] =
                attemptMs / c["util.worker_attempts"];
        return digest;
    }

  private:
    EvaluatorOptions evaluatorOptions() const
    {
        EvaluatorOptions eo;
        eo.traceRefs = traceRefs();
        eo.traceFiles = files_;
        return eo;
    }

    SupervisorOptions supervisorOptions() const
    {
        SupervisorOptions so;
        so.evaluator = evaluatorOptions();
        so.resultStorePath = setDir() + "/store.tlrs";
        return so;
    }

    static bool samePoints(const std::vector<DesignPoint> &a,
                           const std::vector<DesignPoint> &b)
    {
        if (a.size() != b.size())
            return false;
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (!samePoint(a[i], b[i]))
                return false;
        }
        return true;
    }

    std::vector<SystemConfig> configs_;
    /** Cold-sweep points of the last pass, by benchmark. */
    std::map<Benchmark, std::vector<DesignPoint>> cold_;
};

} // namespace

// --- shared ------------------------------------------------------------

void
Workload::freshSetDir()
{
    removeSetDir();
    fs::create_directories(setDir());
}

void
Workload::removeSetDir()
{
    std::error_code ec;
    fs::remove_all(setDir(), ec);
    files_.clear();
}

void
Workload::writeTraces(Tracer &tracer)
{
    for (Benchmark b : Workloads::all()) {
        TraceBuffer buf = [&] {
            ScopedSpan s(tracer, "trace.synth");
            return Workloads::generate(b, traceRefs(),
                                       static_cast<unsigned>(env_.seed));
        }();
        const std::string path =
            setDir() + "/" + Workloads::info(b).name + ".trc";
        {
            ScopedSpan s(tracer, "trace.encode");
            Status st = saveTraceFile(path, buf);
            if (!st.ok())
                fatal("%s", st.toString().c_str());
        }
        files_[b] = path;
    }
}

std::string
Workload::traceDigests() const
{
    std::string out;
    for (const auto &[b, path] : files_) {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        char hex[17];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(fnv1a(bytes.str())));
        out += (out.empty() ? "" : " ") +
               std::string(Workloads::info(b).name) + ":" + hex;
    }
    return out;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Environment &env)
{
    if (name == "paper")
        return std::make_unique<PaperWorkload>(env);
    if (name == "served")
        return std::make_unique<ServedWorkload>(env);
    if (name == "isolated")
        return std::make_unique<IsolatedWorkload>(env);
    return nullptr;
}

double
anchorErrorPct()
{
    const std::pair<Benchmark, double> anchors[] = {
        {Benchmark::Espresso, 0.0100},
        {Benchmark::Eqntott, 0.0149},
        {Benchmark::Tomcatv, 0.109}};
    constexpr std::uint64_t kRefs = 1000000;
    SystemConfig c;
    c.l1Bytes = 32 * 1024;
    const std::vector<SystemConfig> configs{c};
    double err = 0.0;
    for (const auto &[b, paper] : anchors) {
        double misses = 0.0, refs = 0.0;
        for (unsigned variant = 1; variant <= 4; ++variant) {
            TraceBuffer t = Workloads::generate(b, kRefs, variant);
            const HierarchyStats s =
                BatchEngine::simulateConfigs(t, warmupOf(kRefs), configs)
                    .stats[0];
            misses += static_cast<double>(s.l1Misses());
            refs += static_cast<double>(s.totalRefs());
        }
        err += std::abs(misses / refs - paper) / paper;
    }
    return 100.0 * err / static_cast<double>(std::size(anchors));
}

} // namespace perfbench
