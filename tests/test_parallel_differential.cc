/**
 * @file
 * Differential tests for the parallel sweep engine: the same sweep
 * run serially and with 1/2/8 workers must produce byte-identical
 * DesignPoint vectors (miss counts, timing, area, TPI), envelopes,
 * and FailureReport contents in the same (input-index) order — the
 * determinism guarantee every figure of the paper now rests on.
 * Includes fail-soft sweeps with invalid configurations and corrupt
 * or missing trace files, and the timing-memo key regression.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/explorer.hh"
#include "util/parallel.hh"
#include "util/units.hh"

using namespace tlc;

namespace {

/// Cheap but long enough that warmup, L2 activity and random
/// replacement all engage.
constexpr std::uint64_t kRefs = 30000;

/** Restores the worker-count override when a test exits. */
class WorkerCountGuard
{
  public:
    explicit WorkerCountGuard(unsigned n) { setParallelWorkerCount(n); }
    ~WorkerCountGuard() { setParallelWorkerCount(0); }
};

struct SweepResult
{
    std::vector<DesignPoint> points;
    std::vector<SweepFailure> failures;
};

/**
 * One complete sweep over @p configs with @p workers threads, on a
 * fresh evaluator/explorer pair so memoization cannot leak results
 * between the runs being compared. @p trace_file optionally routes
 * the benchmark to an on-disk trace.
 */
SweepResult
runSweep(unsigned workers, Benchmark b,
         const std::vector<SystemConfig> &configs,
         const std::string &trace_file = "")
{
    WorkerCountGuard guard(workers);
    EvaluatorOptions opts;
    opts.traceRefs = kRefs;
    if (!trace_file.empty())
        opts.traceFiles[b] = trace_file;
    MissRateEvaluator ev(std::move(opts));
    Explorer ex(ev);
    FailureReport report;
    SweepResult r;
    r.points = ex.evaluateAll(b, configs, &report);
    r.failures = report.failures();
    return r;
}

/** Bitwise equality of every priced field of two design points. */
void
expectIdenticalPoint(const DesignPoint &a, const DesignPoint &b,
                     std::size_t i)
{
    SCOPED_TRACE("point " + std::to_string(i));
    EXPECT_EQ(a.config.label(), b.config.label());
    EXPECT_EQ(a.config.l1Bytes, b.config.l1Bytes);
    EXPECT_EQ(a.config.l2Bytes, b.config.l2Bytes);
    EXPECT_EQ(a.areaRbe, b.areaRbe);
    EXPECT_EQ(a.l1Timing.accessNs, b.l1Timing.accessNs);
    EXPECT_EQ(a.l1Timing.cycleNs, b.l1Timing.cycleNs);
    EXPECT_EQ(a.l2Timing.accessNs, b.l2Timing.accessNs);
    EXPECT_EQ(a.l2Timing.cycleNs, b.l2Timing.cycleNs);
    EXPECT_EQ(a.miss.instrRefs, b.miss.instrRefs);
    EXPECT_EQ(a.miss.dataRefs, b.miss.dataRefs);
    EXPECT_EQ(a.miss.l1iMisses, b.miss.l1iMisses);
    EXPECT_EQ(a.miss.l1dMisses, b.miss.l1dMisses);
    EXPECT_EQ(a.miss.l2Hits, b.miss.l2Hits);
    EXPECT_EQ(a.miss.l2Misses, b.miss.l2Misses);
    EXPECT_EQ(a.miss.swaps, b.miss.swaps);
    EXPECT_EQ(a.miss.offchipWritebacks, b.miss.offchipWritebacks);
    EXPECT_EQ(a.tpi.tpi, b.tpi.tpi);
    EXPECT_EQ(a.tpi.l2CycleNs, b.tpi.l2CycleNs);
    EXPECT_EQ(a.tpi.l2CycleCpu, b.tpi.l2CycleCpu);
    EXPECT_EQ(a.tpi.baseTimeNs, b.tpi.baseTimeNs);
    EXPECT_EQ(a.tpi.l2HitTimeNs, b.tpi.l2HitTimeNs);
    EXPECT_EQ(a.tpi.l2MissTimeNs, b.tpi.l2MissTimeNs);
}

void
expectIdentical(const SweepResult &a, const SweepResult &b)
{
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i)
        expectIdenticalPoint(a.points[i], b.points[i], i);

    ASSERT_EQ(a.failures.size(), b.failures.size());
    for (std::size_t i = 0; i < a.failures.size(); ++i) {
        SCOPED_TRACE("failure " + std::to_string(i));
        EXPECT_EQ(a.failures[i].subject, b.failures[i].subject);
        EXPECT_EQ(a.failures[i].status.code(),
                  b.failures[i].status.code());
        EXPECT_EQ(a.failures[i].status.message(),
                  b.failures[i].status.message());
    }

    // The envelope is derived data, but it is what the figures
    // print, so pin it down too.
    Envelope ea = Explorer::envelopeOf(a.points);
    Envelope eb = Explorer::envelopeOf(b.points);
    ASSERT_EQ(ea.points().size(), eb.points().size());
    for (std::size_t i = 0; i < ea.points().size(); ++i) {
        EXPECT_EQ(ea.points()[i].area, eb.points()[i].area);
        EXPECT_EQ(ea.points()[i].tpi, eb.points()[i].tpi);
        EXPECT_EQ(ea.points()[i].label, eb.points()[i].label);
    }
}

std::string
writeTempFile(const std::string &name, const std::string &bytes)
{
    std::string path = ::testing::TempDir() + name;
    std::ofstream os(path, std::ios::binary);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
    return path;
}

} // namespace

TEST(ParallelDifferential, FullDesignSpaceMatchesSerial)
{
    SystemAssumptions a;
    std::vector<SystemConfig> configs = DesignSpace::enumerate(a);
    ASSERT_GT(configs.size(), 40u);

    SweepResult serial = runSweep(1, Benchmark::Espresso, configs);
    EXPECT_EQ(serial.points.size(), configs.size());
    EXPECT_TRUE(serial.failures.empty());

    for (unsigned workers : {2u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        expectIdentical(serial,
                        runSweep(workers, Benchmark::Espresso, configs));
    }
}

TEST(ParallelDifferential, FailSoftSweepMatchesSerial)
{
    SystemAssumptions a;
    std::vector<SystemConfig> configs;
    for (std::uint64_t l1 : {8_KiB, 16_KiB, 32_KiB}) {
        SystemConfig c;
        c.l1Bytes = l1;
        c.l2Bytes = 8 * l1;
        c.assume = a;
        configs.push_back(c);
    }
    // Two invalid points at fixed positions: a non-power-of-two L1
    // and a line size larger than the L2.
    SystemConfig bad1;
    bad1.l1Bytes = 3000;
    bad1.assume = a;
    configs.insert(configs.begin() + 1, bad1);
    SystemConfig bad2;
    bad2.l1Bytes = 8_KiB;
    bad2.l2Bytes = 8;
    bad2.assume = a;
    configs.push_back(bad2);

    SweepResult serial = runSweep(1, Benchmark::Gcc1, configs);
    ASSERT_EQ(serial.points.size(), 3u);
    ASSERT_EQ(serial.failures.size(), 2u);
    // Failures ordered by input index, not completion order.
    EXPECT_EQ(serial.failures[0].subject, bad1.label());
    EXPECT_EQ(serial.failures[1].subject, bad2.label());
    EXPECT_EQ(serial.failures[0].status.code(),
              StatusCode::InvalidConfig);

    for (unsigned workers : {2u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        expectIdentical(serial, runSweep(workers, Benchmark::Gcc1,
                                         configs));
    }
}

TEST(ParallelDifferential, CorruptTraceFileMatchesSerial)
{
    SystemAssumptions a;
    std::vector<SystemConfig> configs = DesignSpace::enumerate(a);

    // Text garbage fails the text reader; bytes behind a valid
    // binary magic fail the binary header check.
    const struct
    {
        std::string bytes;
        StatusCode code;
    } corpus[] = {
        {"not a trace !!!\xff\xfe\x01", StatusCode::ParseError},
        {"TLCT garbage that is certainly not a valid trace file",
         StatusCode::VersionMismatch},
    };
    for (const auto &input : corpus) {
        SCOPED_TRACE(input.bytes);
        std::string path = writeTempFile("tlc_corrupt.trc", input.bytes);

        SweepResult serial =
            runSweep(1, Benchmark::Gcc1, configs, path);
        EXPECT_TRUE(serial.points.empty());
        ASSERT_EQ(serial.failures.size(), 1u);
        EXPECT_EQ(serial.failures[0].subject, "benchmark gcc1");
        EXPECT_EQ(serial.failures[0].status.code(), input.code);

        for (unsigned workers : {2u, 8u}) {
            SCOPED_TRACE("workers=" + std::to_string(workers));
            expectIdentical(serial, runSweep(workers, Benchmark::Gcc1,
                                             configs, path));
        }

        // A point query fails with exactly the status the sweep
        // reported, and a healthy benchmark on the same evaluator
        // still simulates.
        EvaluatorOptions opts;
        opts.traceRefs = kRefs;
        opts.traceFiles[Benchmark::Gcc1] = path;
        MissRateEvaluator ev(std::move(opts));
        auto point = ev.tryMissStats(Benchmark::Gcc1, configs.front());
        ASSERT_FALSE(point.ok());
        EXPECT_EQ(point.status().code(), input.code);
        EXPECT_EQ(point.status().message(),
                  serial.failures[0].status.message());
        EXPECT_TRUE(ev.tryMissStats(Benchmark::Li, configs.front()).ok());
        std::remove(path.c_str());
    }
}

TEST(ParallelDifferential, MissingTraceFileMatchesSerial)
{
    std::string path = ::testing::TempDir() + "tlc_missing_trace.trc";
    SystemAssumptions a;
    std::vector<SystemConfig> configs = DesignSpace::enumerate(a);

    SweepResult serial =
        runSweep(1, Benchmark::Fpppp, configs, path);
    EXPECT_TRUE(serial.points.empty());
    ASSERT_EQ(serial.failures.size(), 1u);
    EXPECT_EQ(serial.failures[0].status.code(), StatusCode::IoError);

    expectIdentical(serial,
                    runSweep(8, Benchmark::Fpppp, configs, path));

    // The same missing file inside a multi-benchmark request, next
    // to a healthy benchmark and an invalid configuration: the
    // request's thread override must not change what is priced or
    // what is reported.
    SystemConfig bad;
    bad.l1Bytes = 3 * 1024; // not a power of two
    bad.assume = a;
    std::vector<SystemConfig> withBad = configs;
    withBad.push_back(bad);
    auto runRequest = [&](unsigned threads) {
        EvaluatorOptions opts;
        opts.traceRefs = kRefs;
        opts.traceFiles[Benchmark::Fpppp] = path;
        MissRateEvaluator ev(std::move(opts));
        Explorer ex(ev);
        FailureReport report;
        SweepRequest req;
        req.configs = withBad;
        req.benchmarks = {Benchmark::Gcc1, Benchmark::Fpppp};
        req.threads = threads;
        req.report = &report;
        SweepResult r;
        for (BenchmarkSweep &s : ex.evaluateAll(req))
            r.points.insert(r.points.end(), s.points.begin(),
                            s.points.end());
        r.failures = report.failures();
        return r;
    };
    SweepResult requestSerial = runRequest(1);
    EXPECT_EQ(requestSerial.points.size(), configs.size());
    ASSERT_EQ(requestSerial.failures.size(), 2u);
    EXPECT_EQ(requestSerial.failures[0].subject, bad.label());
    EXPECT_EQ(requestSerial.failures[0].status.code(),
              StatusCode::InvalidConfig);
    EXPECT_EQ(requestSerial.failures[1].subject, "benchmark fpppp");
    EXPECT_EQ(requestSerial.failures[1].status.code(),
              StatusCode::IoError);
    expectIdentical(requestSerial, runRequest(4));
}

TEST(ParallelDifferential, FailureReportToleratesConcurrentAdds)
{
    // Explorer itself records failures post-join, but a report
    // shared by an application-level parallel loop must not race.
    WorkerCountGuard guard(8);
    FailureReport report;
    parallelFor(64, [&](std::size_t i) {
        report.add("subject " + std::to_string(i),
                   statusf(StatusCode::InternalError, "failure %zu", i));
    });
    EXPECT_EQ(report.size(), 64u);
    EXPECT_TRUE(report.mentions("subject 63"));
}

TEST(ParallelDifferential, SharedExplorerSweepIsReusable)
{
    // One explorer pricing the same space twice (second pass fully
    // memoized) must agree with itself — the memo caches are keyed
    // on exact geometry, not insertion order.
    WorkerCountGuard guard(4);
    MissRateEvaluator ev(kRefs);
    Explorer ex(ev);
    SystemAssumptions a;
    auto first = ex.sweep(Benchmark::Li, a);
    auto second = ex.sweep(Benchmark::Li, a);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        expectIdenticalPoint(first[i], second[i], i);
}
