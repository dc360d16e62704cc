/**
 * @file
 * perfbench: the repository benchmark's driver.
 *
 *   perfbench --workload paper|served|isolated [--seed N]
 *             [--seconds S] [--trace 0|1]
 *
 * --trace 0 repeats {set up, timed pass} until S seconds have passed
 * (at least three times), checks the first pass's outputs, and
 * reports the end-to-end metrics as medians over the passes (see
 * runTimed for which passes count).
 * --trace 1 sets up, replays the work once untraced and once traced
 * on one thread, checks the replay against a timed pass, and reports
 * the per-layer ledger. Either way the last line of standard output
 * is one JSON object; the exit code is 1 when any output check
 * failed and 2 on a usage error.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "ledger.hh"
#include "util/parallel.hh"
#include "util/simd.hh"
#include "workloads.hh"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

/** One reported metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Reset the kernel's peak-RSS mark (VmHWM) so the next peakRssMb()
 * covers only what follows, where the kernel allows it.
 */
void
resetPeakRss()
{
    // Hand freed heap back first, so the mark starts from what is
    // live rather than from what earlier passes left cached.
    malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
}

/**
 * Peak resident set since the last reset (or process start), MB, or
 * that of the largest worker process reaped so far if larger.
 */
double
peakRssMb()
{
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    double kb = static_cast<double>(self.ru_maxrss);
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            kb = std::strtod(line.c_str() + 6, nullptr);
    }
    return std::max(kb, static_cast<double>(children.ru_maxrss)) / 1024.0;
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "paper|served|isolated [--seed N] [--seconds S] "
                 "[--trace 0|1]\n",
                 msg);
    return 2;
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

void
printChecks(const CheckResult &c)
{
    std::printf("# checks: %llu outputs checked, %llu mismatches\n",
                static_cast<unsigned long long>(c.checked),
                static_cast<unsigned long long>(c.mismatches));
    for (const std::string &n : c.notes)
        std::printf("# mismatch: %s\n", n.c_str());
}

/** Host CPU ticks from /proc/stat: {stolen, all}; zeros if unreadable. */
std::pair<double, double>
hostTicks()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;
    double stolen = 0.0, all = 0.0, v = 0.0;
    // user nice system idle iowait irq softirq steal
    for (int field = 0; field < 8 && stat >> v; ++field) {
        all += v;
        if (field == 7)
            stolen = v;
    }
    return {stolen, all};
}

/** What one {setup, timed pass} measured. */
struct PassSample
{
    double setupS = 0.0;
    PassResult result;
    double rssMb = 0.0;
    double stealShare = 0.0; ///< host CPU time stolen meanwhile
};

void
printByPass(const char *name, const std::vector<PassSample> &passes,
            double (*field)(const PassSample &))
{
    std::printf("# %s by pass:", name);
    for (const PassSample &p : passes)
        std::printf(" %.4g", field(p));
    std::printf("\n");
}

/**
 * --trace 0: end-to-end metrics, medians over the passes. When the
 * host stole more than 1% of this machine's CPU time during some
 * passes, only the calmer half count: a virtual machine whose
 * neighbours wake up runs everything slower for a while, which says
 * nothing about the program.
 */
int
runTimed(Workload &w, double seconds)
{
    const double start = nowSeconds();
    const double anchor = anchorErrorPct();
    std::vector<PassSample> passes;
    std::uint64_t attempted = 0, failed = 0;
    CheckResult checks;
    Tracer off(false);
    for (std::size_t pass = 0;
         pass < 3 || nowSeconds() - start < seconds; ++pass) {
        PassSample p;
        const auto [stolen0, all0] = hostTicks();
        const double s0 = nowSeconds();
        w.setup(off);
        p.setupS = nowSeconds() - s0;
        if (pass == 0)
            std::printf("# traces: %s\n", w.traceDigests().c_str());

        resetPeakRss();
        p.result = w.pass();
        p.rssMb = peakRssMb();
        const auto [stolen1, all1] = hostTicks();
        if (all1 > all0)
            p.stealShare = (stolen1 - stolen0) / (all1 - all0);

        const PassResult &r = p.result;
        if (!passes.empty() &&
            (r.reqMs.size() != passes.front().result.reqMs.size() ||
             r.warm != passes.front().result.warm)) {
            ++failed;
            std::printf("# mismatch: pass %zu served different requests\n",
                        pass);
        }
        attempted += r.attempted;
        failed += r.failed;
        if (pass == 0) {
            checks = w.check();
        } else {
            ++checks.checked;
            if (r.digest != passes.front().result.digest) {
                ++checks.mismatches;
                checks.notes.push_back("pass " + std::to_string(pass) +
                                       " outputs differ from pass 0");
            }
        }
        w.teardown();
        passes.push_back(std::move(p));
    }
    attempted += checks.checked;
    failed += checks.mismatches;
    printChecks(checks);

    std::vector<double> shares;
    for (const PassSample &p : passes)
        shares.push_back(p.stealShare);
    std::vector<const PassSample *> calm;
    // Below 1% stolen, steal is lost in the run-to-run noise.
    for (std::size_t i : calmest(shares, 0.01))
        calm.push_back(&passes[i]);
    auto over = [&](double (*field)(const PassSample &)) {
        std::vector<double> v;
        for (const PassSample *p : calm)
            v.push_back(field(*p));
        return median(v);
    };

    // A request's latency is its median over the passes; percentiles
    // are over requests.
    const PassResult &first = passes.front().result;
    std::vector<double> all, warmMs, coldMs;
    for (std::size_t i = 0; i < first.reqMs.size(); ++i) {
        std::vector<double> v;
        for (const PassSample *p : calm) {
            if (i < p->result.reqMs.size())
                v.push_back(p->result.reqMs[i]);
        }
        all.push_back(median(v));
        (first.warm[i] ? warmMs : coldMs).push_back(all.back());
    }
    const Percentile p50 = percentile(all, 50.0);
    const Percentile p95 = percentile(all, 95.0);
    std::printf("# passes: %zu, %zu of them calm; requests: %zu (%zu warm, "
                "%zu cold), %zu beyond p95\n",
                passes.size(), calm.size(), p95.samples, warmMs.size(),
                coldMs.size(), p95.beyond);
    printByPass("steal_share", passes,
                [](const PassSample &p) { return p.stealShare; });
    printByPass("setup_s", passes,
                [](const PassSample &p) { return p.setupS; });
    printByPass("wall_s", passes,
                [](const PassSample &p) { return p.result.wallSeconds; });
    printByPass("peak_rss_mb", passes,
                [](const PassSample &p) { return p.rssMb; });
    std::printf("# error_rate: %.6g (%llu failed of %llu attempted)\n",
                static_cast<double>(failed) / static_cast<double>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    printResult(
        failed == 0, attempted, failed,
        {{"setup_s", over([](const PassSample &p) { return p.setupS; }), "s"},
         {"wall_s",
          over([](const PassSample &p) { return p.result.wallSeconds; }),
          "s"},
         {"points_per_s", over([](const PassSample &p) {
              return static_cast<double>(p.result.points) /
                     p.result.wallSeconds;
          }),
          "1/s"},
         {"lane_refs_per_s", over([](const PassSample &p) {
              return static_cast<double>(p.result.laneRefs) /
                     p.result.wallSeconds;
          }),
          "1/s"},
         {"req_p50_ms", p50.value, "ms"},
         {"req_p95_ms", p95.value, "ms"},
         {"warm_req_p50_ms", median(warmMs), "ms"},
         {"cold_req_p50_ms", median(coldMs), "ms"},
         // The first pass's: later ones inherit what the library's
         // threads and caches kept from earlier passes, which varies
         // from run to run.
         {"peak_rss_mb", passes.front().rssMb, "MB"},
         {"anchor_err_pct", anchor, "%"}});
    return failed == 0 ? 0 : 1;
}

/** --trace 1: the per-layer ledger of one traced replay. */
int
runTraced(Workload &w, const std::string &spans_path)
{
    static const std::vector<std::string> kLayers{
        "trace", "cache", "core", "timing", "area", "service", "util"};
    CheckResult checks;

    // The same replay untraced, for the tracing overhead.
    Tracer off(false);
    Counters ignored;
    w.setup(off);
    const double u0 = nowSeconds();
    const std::uint64_t untracedDigest = w.replay(off, ignored, checks);
    const double untracedS = nowSeconds() - u0;
    w.teardown();

    Tracer tracer(true);
    Counters c;
    {
        ScopedSpan s(tracer, "bench.setup");
        w.setup(tracer);
    }
    std::uint64_t digest = 0;
    const double t0 = nowSeconds();
    {
        ScopedSpan s(tracer, "bench.replay");
        digest = w.replay(tracer, c, checks);
    }
    const double tracedS = nowSeconds() - t0;
    w.teardown();

    // The replay must reproduce what the pipeline produces.
    w.setup(off);
    PassResult r = w.pass();
    w.teardown();
    checks.checked += 2;
    if (digest != untracedDigest) {
        ++checks.mismatches;
        checks.notes.push_back("traced and untraced replays differ");
    }
    if (digest != r.digest) {
        ++checks.mismatches;
        checks.notes.push_back("replay differs from the pipeline pass");
    }
    printChecks(checks);
    tracer.writeJson(spans_path);
    std::printf("# spans: %zu written to %s\n", tracer.spans().size(),
                spans_path.c_str());

    const Ledger l = buildLedger(tracer.spans(), kLayers);
    auto self = [&](const char *name) {
        auto it = l.nameSelf.find(name);
        return it == l.nameSelf.end() ? 0.0 : it->second;
    };
    auto total = [&](const char *name) {
        auto it = l.nameTotal.find(name);
        return it == l.nameTotal.end() ? 0.0 : it->second;
    };
    auto perCall = [&](const char *name, double scale) {
        auto it = l.calls.find(name);
        return it == l.calls.end() ? 0.0
                                   : scale * total(name) /
                                         static_cast<double>(it->second);
    };
    auto count = [&](const char *name) {
        auto it = c.find(name);
        return it == c.end() ? 0.0 : it->second;
    };
    auto nsPerLaneRef = [&](const char *flavour) {
        const std::string span = std::string("cache.") + flavour;
        const double refs = count((span + ".lane_refs").c_str());
        return refs > 0 ? 1e9 * self(span.c_str()) / refs : 0.0;
    };
    const double points = count("core.points");
    const double lookups = count("service.store_hits") +
                           count("service.store_misses");

    std::vector<Metric> m{
        {"traced_wall_s", l.wall, "s"},
        {"tracing_overhead_s", tracedS - untracedS, "s"},
    };
    for (const std::string &layer : kLayers)
        m.push_back({layer + ".self_s", l.layerSelf.at(layer), "s"});
    m.insert(m.end(), {
        {"core.unattributed_s", l.unattributed, "s"},
        {"trace.synth_s", self("trace.synth"), "s"},
        {"trace.encode_s", self("trace.encode"), "s"},
        {"trace.decode_s", self("trace.decode"), "s"},
        {"trace.refs", count("trace.refs"), "count"},
        {"cache.single_s", self("cache.single"), "s"},
        {"cache.inclusive_s", self("cache.inclusive"), "s"},
        {"cache.exclusive_s", self("cache.exclusive"), "s"},
        {"cache.single_ns_per_lane_ref", nsPerLaneRef("single"), "ns"},
        {"cache.inclusive_ns_per_lane_ref", nsPerLaneRef("inclusive"), "ns"},
        {"cache.exclusive_ns_per_lane_ref", nsPerLaneRef("exclusive"), "ns"},
        {"cache.lane_refs", count("cache.lane_refs"), "count"},
        {"cache.flat_lanes", count("cache.flat_lanes"), "count"},
        {"cache.generic_lanes", count("cache.generic_lanes"), "count"},
        {"cache.l1_misses", count("cache.l1_misses"), "count"},
        {"cache.l2_hits", count("cache.l2_hits"), "count"},
        {"cache.l2_misses", count("cache.l2_misses"), "count"},
        {"cache.swaps", count("cache.swaps"), "count"},
        {"cache.writebacks", count("cache.writebacks"), "count"},
        {"core.points", points, "count"},
        {"core.simulated_points", count("core.simulated_points"), "count"},
        {"core.memo_hit_ratio",
         points > 0 ? 1.0 - count("core.simulated_points") / points : 0.0,
         "ratio"},
        {"core.price_s", self("core.price"), "s"},
        {"core.envelope_s", self("core.envelope"), "s"},
        {"timing.model_s", self("timing.model"), "s"},
        {"timing.model_calls", count("timing.model_calls"), "count"},
        {"area.model_s", self("area.model"), "s"},
        {"area.model_calls", count("area.model_calls"), "count"},
        {"service.decode_us", perCall("service.decode", 1e6), "us"},
        {"service.encode_us", perCall("service.encode", 1e6), "us"},
        {"service.engine_ms", perCall("service.engine", 1e3), "ms"},
        {"service.transport_ms", count("service.transport_ms"), "ms"},
        {"service.response_kb", count("service.response_kb"), "kB"},
        {"service.store_hits", count("service.store_hits"), "count"},
        {"service.store_misses", count("service.store_misses"), "count"},
        {"service.store_appends", count("service.store_appends"), "count"},
        {"service.store_hit_ratio",
         lookups > 0 ? count("service.store_hits") / lookups : 0.0,
         "ratio"},
        {"util.store_lookup_us", perCall("util.store_lookup", 1e6), "us"},
        {"util.store_append_us", perCall("util.store_append", 1e6), "us"},
        {"util.store_bytes", count("util.store_bytes"), "B"},
        {"util.shards", count("util.shards"), "count"},
        {"util.worker_attempts", count("util.worker_attempts"), "count"},
        {"util.worker_attempt_ms", count("util.worker_attempt_ms"), "ms"},
        {"util.worker_retries", count("util.worker_retries"), "count"},
    });
    const std::uint64_t attempted = checks.checked;
    printResult(checks.mismatches == 0, attempted, checks.mismatches, m);
    return checks.mismatches == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    int trace = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            workload = v;
        } else if (a == "--seed") {
            seed = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--seconds") {
            seconds = std::strtod(v.c_str(), &end);
        } else if (a == "--trace") {
            trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
            if (trace != 0 && trace != 1)
                return usage("--trace takes 0 or 1");
        } else {
            return usage(("unknown argument " + a).c_str());
        }
        if (end && *end)
            return usage(("bad number for " + a).c_str());
    }

    const char *target = std::getenv("CARGO_TARGET_DIR");
    const std::string base = std::string(target && *target
                                             ? target
                                             : ".bench_build") +
                             "/perfbench-work";
    Environment env;
    env.seed = seed;
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    // The timed passes' worker team; the replays narrow it to one.
    const unsigned width = std::min(4u, nproc);
    env.workDir = base + "/" + workload + "-" + std::to_string(getpid());
    std::unique_ptr<Workload> w = makeWorkload(workload, env);
    if (!w)
        return usage(("unknown workload '" + workload + "'").c_str());
    tlc::setParallelWorkerCount(width);

    std::printf("# perfbench: workload=%s seed=%llu trace_refs=%llu "
                "width=%u simd=%s compiler=\"%s\" nproc=%u trace=%d\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(w->traceRefs()), width,
                tlc::simdBackendName(tlc::activeSimdBackend()),
                PERFBENCH_COMPILER, nproc, trace);
    std::filesystem::create_directories(env.workDir);
    const int rc = trace ? runTraced(*w, base + "/spans-" + workload + ".json")
                         : runTimed(*w, seconds);
    std::error_code ec;
    std::filesystem::remove_all(env.workDir, ec);
    return rc;
}
