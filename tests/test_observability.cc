/**
 * @file
 * Tests for the observability layer: metrics registry semantics
 * (create-or-get, kinds, dumps), concurrent counter increments under
 * the parallelFor worker team (run under TSan via the test_parallel
 * target), the scoped phase profiler, the Chrome trace-event
 * exporter, the JSON helpers that back all of them, sweep progress
 * callbacks, and the run manifest schema.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/explorer.hh"
#include "util/json.hh"
#include "util/metrics.hh"
#include "util/parallel.hh"
#include "util/profiler.hh"
#include "util/run_manifest.hh"
#include "util/trace_event.hh"

using namespace tlc;

// ---------------------------------------------------------------- JSON

TEST(Json, EscapeCoversControlAndQuoteCharacters)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
    EXPECT_EQ(jsonQuote("x"), "\"x\"");
}

TEST(Json, NumberRoundTripsAndSanitisesNonFinite)
{
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(42.0), "42");
    EXPECT_EQ(jsonNumber(-1.5), "-1.5");
    // Shortest form that parses back to the same double.
    double v = 0.1;
    EXPECT_EQ(std::stod(jsonNumber(v)), v);
    v = 1.0 / 3.0;
    EXPECT_EQ(std::stod(jsonNumber(v)), v);
    // JSON has no NaN/Inf; the helper degrades to 0.
    EXPECT_EQ(jsonNumber(std::nan("")), "0");
    EXPECT_EQ(jsonNumber(HUGE_VAL), "0");
}

TEST(Json, SyntaxCheckerAcceptsValidDocuments)
{
    EXPECT_TRUE(jsonParse("{}").ok());
    EXPECT_TRUE(jsonParse("[]").ok());
    EXPECT_TRUE(jsonParse("42").ok());
    EXPECT_TRUE(jsonParse("-1.5e-3").ok());
    EXPECT_TRUE(jsonParse("\"str\"").ok());
    EXPECT_TRUE(jsonParse("true").ok());
    EXPECT_TRUE(jsonParse(" { \"a\" : [1, 2.5, null, {\"b\": "
                          "\"\\u0041\\n\"}] } ").ok());
}

TEST(Json, SyntaxCheckerRejectsMalformedDocuments)
{
    EXPECT_FALSE(jsonParse("").ok());
    EXPECT_FALSE(jsonParse("{").ok());
    EXPECT_FALSE(jsonParse("{\"a\": 1,}").ok());
    EXPECT_FALSE(jsonParse("[1, 2").ok());
    EXPECT_FALSE(jsonParse("{\"a\" 1}").ok());
    EXPECT_FALSE(jsonParse("{} trailing").ok());
    EXPECT_FALSE(jsonParse("01").ok());
    EXPECT_FALSE(jsonParse("+1").ok());
    EXPECT_FALSE(jsonParse("\"unterminated").ok());
    EXPECT_FALSE(jsonParse("{'a': 1}").ok());
    EXPECT_FALSE(jsonParse("nul").ok());
}

// ------------------------------------------------------------- metrics

TEST(Metrics, CreateOrGetReturnsTheSameObject)
{
    MetricsRegistry reg;
    MetricCounter &a = reg.counter("cache.l1d.misses");
    MetricCounter &b = reg.counter("cache.l1d.misses");
    EXPECT_EQ(&a, &b);
    a.inc(3);
    EXPECT_EQ(b.value(), 3u);
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_TRUE(reg.has("cache.l1d.misses"));
    EXPECT_FALSE(reg.has("cache.l1d"));
}

TEST(Metrics, ReferencesSurviveLaterRegistrations)
{
    // The hot-path contract: hold the reference, never re-look-up.
    MetricsRegistry reg;
    MetricCounter &early = reg.counter("a.first");
    for (int i = 0; i < 100; ++i)
        reg.counter("b.fill." + std::to_string(i));
    early.inc();
    EXPECT_EQ(reg.counter("a.first").value(), 1u);
}

TEST(Metrics, GaugeAndHistogramBasics)
{
    MetricsRegistry reg;
    MetricGauge &g = reg.gauge("explore.speedup");
    g.set(3.75);
    EXPECT_DOUBLE_EQ(reg.gauge("explore.speedup").value(), 3.75);

    MetricHistogram &h = reg.histogram("trace.burst");
    h.sample(1);
    h.sample(2);
    h.sample(1024);
    EXPECT_EQ(h.snapshot().count(), 3u);

    std::vector<std::string> names = reg.names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "explore.speedup"); // sorted
    EXPECT_EQ(names[1], "trace.burst");
}

TEST(Metrics, ResetZeroesValuesButKeepsRegistrations)
{
    MetricsRegistry reg;
    reg.counter("c").inc(7);
    reg.gauge("g").set(1.5);
    reg.histogram("h").sample(9);
    reg.resetAll();
    EXPECT_EQ(reg.size(), 3u);
    EXPECT_EQ(reg.counter("c").value(), 0u);
    EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 0.0);
    EXPECT_EQ(reg.histogram("h").snapshot().count(), 0u);
}

TEST(Metrics, JsonDumpMatchesGolden)
{
    MetricsRegistry reg;
    reg.counter("cache.l2.misses").inc(12);
    reg.counter("cache.l1.hits").inc(88);
    reg.gauge("explore.speedup").set(2.5);
    reg.histogram("lat").sample(1);
    reg.histogram("lat").sample(5);

    const std::string expect = "{\n"
                               "  \"cache.l1.hits\": 88,\n"
                               "  \"cache.l2.misses\": 12,\n"
                               "  \"explore.speedup\": 2.5,\n"
                               "  \"lat\": {\"count\": 2, "
                               "\"buckets\": [1, 0, 1]}\n"
                               "}";
    EXPECT_EQ(reg.toJson(), expect);
    EXPECT_TRUE(jsonParse(reg.toJson()).ok());
}

TEST(Metrics, TextDumpListsEveryMetric)
{
    MetricsRegistry reg;
    reg.counter("alpha").inc(5);
    reg.gauge("beta").set(0.25);
    std::string text = reg.toText();
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("5"), std::string::npos);
    EXPECT_NE(text.find("beta"), std::string::npos);
}

TEST(Metrics, EmptyRegistryDumpsAreValid)
{
    MetricsRegistry reg;
    EXPECT_EQ(reg.size(), 0u);
    EXPECT_TRUE(jsonParse(reg.toJson()).ok());
}

TEST(Metrics, ConcurrentIncrementsFromWorkerTeamLoseNothing)
{
    // The core thread-safety claim, meant to run under TSan: many
    // workers bumping one counter concurrently lose no increments.
    setParallelWorkerCount(4);
    MetricsRegistry reg;
    MetricCounter &c = reg.counter("concurrent.hits");
    MetricHistogram &h = reg.histogram("concurrent.sizes");
    constexpr std::size_t n = 20000;
    parallelFor(n, [&](std::size_t i) {
        c.inc();
        if (i % 100 == 0)
            h.sample(i);
    });
    setParallelWorkerCount(0);
    EXPECT_EQ(c.value(), n);
    EXPECT_EQ(h.snapshot().count(), n / 100);
}

TEST(Metrics, ConcurrentRegistrationYieldsOneObjectPerName)
{
    setParallelWorkerCount(4);
    MetricsRegistry reg;
    std::atomic<MetricCounter *> seen{nullptr};
    std::atomic<int> mismatches{0};
    parallelFor(1000, [&](std::size_t) {
        MetricCounter &c = reg.counter("race.shared");
        c.inc();
        MetricCounter *expected = nullptr;
        if (!seen.compare_exchange_strong(expected, &c) &&
            expected != &c)
            mismatches.fetch_add(1);
    });
    setParallelWorkerCount(0);
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(reg.counter("race.shared").value(), 1000u);
}

TEST(Metrics, GlobalRegistryHasLibraryInstrumentation)
{
    // The library registers its bundles lazily on first use; force
    // one use and check the namespaces exist.
    MissRateEvaluator ev(2000);
    Explorer ex(ev);
    SystemAssumptions a;
    ASSERT_FALSE(ex.sweep(Benchmark::Gcc1, a, true, false).empty());
    MetricsRegistry &g = MetricsRegistry::global();
    EXPECT_TRUE(g.has("explore.points.priced"));
    EXPECT_TRUE(g.has("cache.simulations"));
    EXPECT_TRUE(g.has("trace.synthetic.records"));
    EXPECT_GE(g.counter("cache.simulations").value(), 1u);
    EXPECT_TRUE(jsonParse(g.toJson()).ok());
}

// ------------------------------------------------------------ profiler

TEST(Profiler, DisabledTimersRecordNothing)
{
    Profiler p;
    ASSERT_FALSE(p.enabled());
    {
        ScopedTimer t(phase::kSimL1, p);
    }
    EXPECT_TRUE(p.snapshot().empty());
}

TEST(Profiler, EnabledTimersAggregateAcrossCalls)
{
    Profiler p;
    p.setEnabled(true);
    for (int i = 0; i < 3; ++i) {
        ScopedTimer t(phase::kSimL2, p);
    }
    {
        ScopedTimer t("custom.phase", p);
    }
    auto snap = p.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[phase::kSimL2].calls, 3u);
    EXPECT_EQ(snap["custom.phase"].calls, 1u);
    EXPECT_GE(snap[phase::kSimL2].totalNs, 0u);
    EXPECT_GE(snap[phase::kSimL2].maxNs,
              snap[phase::kSimL2].totalNs / 3);
}

TEST(Profiler, ArmingIsDecidedAtConstruction)
{
    // Flipping the switch mid-scope must not tear a half-armed timer.
    Profiler p;
    {
        ScopedTimer t(phase::kSimL1, p);
        p.setEnabled(true); // too late for this timer
    }
    EXPECT_TRUE(p.snapshot().empty());
    {
        ScopedTimer t(phase::kSimL1, p);
        p.setEnabled(false); // armed timers still record
    }
    EXPECT_EQ(p.snapshot()[phase::kSimL1].calls, 1u);
}

TEST(Profiler, RecordsMergeFromConcurrentWorkers)
{
    Profiler p;
    p.setEnabled(true);
    setParallelWorkerCount(4);
    parallelFor(200, [&](std::size_t) {
        ScopedTimer t(phase::kModelTpi, p);
    });
    setParallelWorkerCount(0);
    EXPECT_EQ(p.snapshot()[phase::kModelTpi].calls, 200u);
}

TEST(Profiler, DumpsAreWellFormed)
{
    Profiler p;
    p.setEnabled(true);
    p.record(phase::kTraceLoad, 1500000); // 1.5 ms
    p.record(phase::kTraceLoad, 500000);
    std::string json = p.toJson();
    EXPECT_TRUE(jsonParse(json).ok());
    EXPECT_NE(json.find("\"trace.load\""), std::string::npos);
    EXPECT_NE(json.find("\"calls\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"total_ms\": 2"), std::string::npos);

    std::string text = p.toText();
    EXPECT_NE(text.find("trace.load"), std::string::npos);
    EXPECT_NE(text.find("calls"), std::string::npos);

    p.reset();
    EXPECT_TRUE(p.snapshot().empty());
    EXPECT_TRUE(p.enabled()); // reset drops data, not the switch
    EXPECT_TRUE(jsonParse(p.toJson()).ok());
}

// --------------------------------------------------------- trace events

TEST(TraceEvent, InactiveByDefault)
{
    EXPECT_EQ(TraceEventRecorder::active(), nullptr);
}

TEST(TraceEvent, WritesValidChromeTraceJson)
{
    TraceEventRecorder rec;
    auto t0 = TraceEventRecorder::Clock::now();
    auto t1 = t0 + std::chrono::microseconds(250);
    rec.complete("64:1:16/1024:4:32", "design-point", t0, t1, 0,
                 "{\"benchmark\": \"gcc1\", \"index\": 0}");
    rec.complete("128:2:32", "design-point", t0, t1, 1);
    EXPECT_EQ(rec.size(), 2u);

    std::ostringstream os;
    rec.write(os);
    std::string json = os.str();
    EXPECT_TRUE(jsonParse(json).ok());
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    // One thread_name metadata event per distinct track.
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"worker-0\""), std::string::npos);
    EXPECT_NE(json.find("\"worker-1\""), std::string::npos);
    EXPECT_NE(json.find("\"benchmark\": \"gcc1\""), std::string::npos);
}

TEST(TraceEvent, ClampsInvertedIntervalsToZeroDuration)
{
    TraceEventRecorder rec;
    auto t0 = TraceEventRecorder::Clock::now();
    rec.complete("backwards", "t", t0 + std::chrono::microseconds(5),
                 t0, 0);
    std::ostringstream os;
    rec.write(os);
    EXPECT_TRUE(jsonParse(os.str()).ok());
    EXPECT_NE(os.str().find("\"dur\": 0"), std::string::npos);
}

TEST(TraceEvent, EscapesEventNames)
{
    TraceEventRecorder rec;
    auto t0 = TraceEventRecorder::Clock::now();
    rec.complete("quote\"back\\slash", "c", t0, t0, 0);
    std::ostringstream os;
    rec.write(os);
    EXPECT_TRUE(jsonParse(os.str()).ok());
}

TEST(TraceEvent, ConcurrentRecordingIsSafeAndComplete)
{
    TraceEventRecorder rec;
    setParallelWorkerCount(4);
    parallelFor(500, [&](std::size_t i) {
        auto now = TraceEventRecorder::Clock::now();
        rec.complete("slice" + std::to_string(i), "t", now, now,
                     parallelWorkerId());
    });
    setParallelWorkerCount(0);
    EXPECT_EQ(rec.size(), 500u);
    std::ostringstream os;
    rec.write(os);
    EXPECT_TRUE(jsonParse(os.str()).ok());
}

// ------------------------------------------------------------ progress

TEST(Progress, FinalUpdateAlwaysFiresWithDoneEqualTotal)
{
    MissRateEvaluator ev(2000);
    Explorer ex(ev);
    std::atomic<std::size_t> fires{0};
    std::atomic<std::size_t> last_done{0}, last_total{0};
    SweepRequest req;
    req.configs = DesignSpace::enumerate(SystemAssumptions{}, true, false);
    req.benchmarks = {Benchmark::Gcc1};
    req.progress = [&](const SweepProgress &p) {
        fires.fetch_add(1);
        last_done.store(p.done);
        last_total.store(p.total);
        EXPECT_LE(p.done, p.total);
        EXPECT_GE(p.elapsedSeconds, 0.0);
        EXPECT_GE(p.etaSeconds, 0.0);
    };
    req.progressIntervalSeconds = 0.0;
    auto points = ex.evaluateAll(req).front().points;
    EXPECT_FALSE(points.empty());
    EXPECT_GE(fires.load(), 1u);
    EXPECT_EQ(last_done.load(), points.size());
    EXPECT_EQ(last_total.load(), points.size());
}

TEST(Progress, UninstalledCallbackIsQuiet)
{
    // A request's callback is scoped to that request: a later sweep
    // on the same explorer reports to nobody.
    MissRateEvaluator ev(2000);
    Explorer ex(ev);
    std::atomic<std::size_t> fires{0};
    SweepRequest req;
    req.configs = DesignSpace::enumerate(SystemAssumptions{}, true, false);
    req.benchmarks = {Benchmark::Gcc1};
    req.progress = [&](const SweepProgress &) { fires.fetch_add(1); };
    req.progressIntervalSeconds = 0.0;
    ex.evaluateAll(req);
    const std::size_t afterRequest = fires.load();
    EXPECT_GE(afterRequest, 1u);
    SystemAssumptions a;
    ex.sweep(Benchmark::Gcc1, a, true, false);
    EXPECT_EQ(fires.load(), afterRequest);
}

TEST(Progress, SweepSlicesLandOnTheActiveRecorder)
{
    MissRateEvaluator ev(2000);
    Explorer ex(ev);
    TraceEventRecorder rec;
    TraceEventRecorder::setActive(&rec);
    SystemAssumptions a;
    auto points = ex.sweep(Benchmark::Gcc1, a, true, false);
    TraceEventRecorder::setActive(nullptr);
    // One design-point slice per point, plus at least one sim-batch
    // slice from the batched simulation underneath.
    EXPECT_GT(rec.size(), points.size());
    std::ostringstream os;
    rec.write(os);
    std::string json = os.str();
    EXPECT_TRUE(jsonParse(json).ok());
    std::size_t design_points = 0;
    const std::string needle = "\"cat\": \"design-point\"";
    for (std::size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + needle.size()))
        ++design_points;
    EXPECT_EQ(design_points, points.size());
    EXPECT_NE(json.find("\"cat\": \"sim-batch\""), std::string::npos);
}

TEST(SweepBatching, EachSweepSimulatesAsOneGroupAtEveryWidth)
{
    // A sweep's configs simulate as ONE SimGroup, whatever the team
    // width — one forest walk per line size instead of one L1 walk
    // per batch — so the 45-point design space leaves exactly one
    // sim-batch slice covering the whole list and one explore.batch
    // group, and its points are the one-worker sweep's points.
    const unsigned prev = parallelWorkerOverride();
    SystemAssumptions a;
    const std::vector<SystemConfig> configs =
        DesignSpace::enumerate(a, true, true);
    MetricCounter &groups =
        MetricsRegistry::global().counter("explore.batch.groups");
    std::vector<std::vector<DesignPoint>> runs;
    for (unsigned width : {1u, 4u}) {
        SCOPED_TRACE("width " + std::to_string(width));
        setParallelWorkerCount(width);
        MissRateEvaluator ev(2000);
        Explorer ex(ev);
        TraceEventRecorder rec;
        const std::uint64_t groups0 = groups.value();
        TraceEventRecorder::setActive(&rec);
        runs.push_back(ex.sweep(Benchmark::Gcc1, a, true, true));
        TraceEventRecorder::setActive(nullptr);
        EXPECT_EQ(groups.value() - groups0, 1u);
        ASSERT_EQ(runs.back().size(), configs.size());

        std::ostringstream os;
        rec.write(os);
        Expected<JsonValue> doc = jsonParse(os.str());
        ASSERT_TRUE(doc.ok());
        std::vector<std::pair<std::size_t, std::size_t>> batches;
        for (const JsonValue &e :
             doc.value().find("traceEvents")->items()) {
            const JsonValue *cat = e.find("cat");
            if (cat == nullptr || cat->str() != "sim-batch")
                continue;
            const JsonValue *args = e.find("args");
            batches.emplace_back(
                static_cast<std::size_t>(args->find("first")->number()),
                static_cast<std::size_t>(args->find("count")->number()));
        }
        ASSERT_EQ(batches.size(), 1u);
        EXPECT_EQ(batches[0].first, 0u);
        EXPECT_EQ(batches[0].second, configs.size());
    }
    setParallelWorkerCount(prev);
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE(configs[i].label());
        const HierarchyStats &one = runs[0][i].miss;
        const HierarchyStats &four = runs[1][i].miss;
        EXPECT_EQ(one.l1iMisses, four.l1iMisses);
        EXPECT_EQ(one.l1dMisses, four.l1dMisses);
        EXPECT_EQ(one.l2Hits, four.l2Hits);
        EXPECT_EQ(one.l2Misses, four.l2Misses);
        EXPECT_EQ(one.offchipWritebacks, four.offchipWritebacks);
        EXPECT_EQ(runs[0][i].tpi.tpi, runs[1][i].tpi.tpi);
    }
}

// ------------------------------------------------------------ manifest

TEST(Manifest, JsonCarriesSchemaAndEmbeddedDumps)
{
    const char *argv[] = {"/path/to/design_explorer", "--refs=1000",
                          "--progress"};
    RunManifest m = RunManifest::fromCommandLine(3, argv);
    m.workload = "gcc1";
    m.traceRefs = 1000;
    m.pointsPriced = 42;
    m.failures = 1;
    m.wallSeconds = 0.5;

    EXPECT_EQ(m.tool, "design_explorer");
    EXPECT_EQ(m.commandLine,
              "/path/to/design_explorer --refs=1000 --progress");
    EXPECT_GE(m.threads, 1u);

    std::string json = m.toJson();
    EXPECT_TRUE(jsonParse(json).ok());
    for (const char *key :
         {"\"schema\": \"tlc-run-manifest-v1\"", "\"tool\"",
          "\"command\"", "\"workload\"", "\"trace_refs\"",
          "\"threads\"", "\"points_priced\"", "\"failures\"",
          "\"wall_seconds\"", "\"metrics\"", "\"phases\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
}
