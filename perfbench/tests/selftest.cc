/**
 * @file
 * Tests of the benchmark's own logic: percentiles and their sample
 * counts, self time of nested spans with the unattributed remainder,
 * and request-sequence determinism per seed. Exits nonzero on the
 * first failed expectation.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <tuple>

#include "ledger.hh"
#include "requests.hh"

using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::abs(a - b) < 1e-12;
}

void
testPercentiles()
{
    expect(percentile({}, 50).samples == 0, "empty has no samples");
    expect(percentile({}, 50).value == 0.0, "empty percentile is 0");

    std::vector<double> v;
    for (int i = 200; i >= 1; --i)
        v.push_back(i); // unsorted on purpose
    Percentile p50 = percentile(v, 50);
    expect(p50.value == 100 && p50.samples == 200 && p50.beyond == 100,
           "p50 of 1..200 is 100 with 100 beyond");
    Percentile p95 = percentile(v, 95);
    expect(p95.value == 190 && p95.beyond == 10,
           "p95 of 1..200 is 190 with 10 beyond");
    Percentile p100 = percentile(v, 100);
    expect(p100.value == 200 && p100.beyond == 0, "p100 is the max");

    // Ties: samples equal to the percentile are not "beyond" it.
    Percentile t = percentile({1, 2, 2, 2, 3}, 50);
    expect(t.value == 2 && t.beyond == 1, "ties stay at the percentile");
    expect(median({5, 1, 3}) == 3, "median of three");
    expect(calmest({0.02, 0.0, 0.09, 0.01}, 0.005) ==
               std::vector<std::size_t>({1, 3}),
           "calmest keeps the passes at or below the median share");
    expect(calmest({0.004, 0.0, 0.002}, 0.005) ==
               std::vector<std::size_t>({0, 1, 2}),
           "passes under the floor are all kept");
    expect(median({4, 1, 3, 2}) == 2, "nearest-rank median of four");
}

void
testLedger()
{
    // root [0,10]: cache.a [1,4] holding trace.b [2,3]; core.c [5,9]
    // holding bench.x [6,8], which holds util.y [6.5,7].
    const std::vector<Span> spans{
        {"bench.root", 0, 10, -1}, {"cache.a", 1, 4, 0},
        {"trace.b", 2, 3, 1},      {"core.c", 5, 9, 0},
        {"bench.x", 6, 8, 3},      {"util.y", 6.5, 7, 4},
        {"bench.root2", 20, 22, -1}};
    const Ledger l =
        buildLedger(spans, {"cache", "trace", "core", "util", "timing"});
    expect(near(l.wall, 12), "wall sums root spans");
    expect(near(l.layerSelf.at("cache"), 2), "cache self excludes child");
    expect(near(l.layerSelf.at("trace"), 1), "trace self");
    expect(near(l.layerSelf.at("core"), 2), "core self excludes child");
    expect(near(l.layerSelf.at("util"), 0.5), "util self");
    expect(near(l.layerSelf.at("timing"), 0), "silent layer is 0");
    // root self 10-3-4=3, bench.x self 1.5, root2 2.
    expect(near(l.unattributed, 6.5), "unattributed remainder");
    double sum = l.unattributed;
    for (const auto &[layer, s] : l.layerSelf)
        sum += s;
    expect(near(sum, l.wall), "layers plus remainder sum to wall");
    expect(l.calls.at("cache.a") == 1 && near(l.nameTotal.at("core.c"), 4),
           "per-name calls and totals");

    // Live spans nest by open/close order.
    Tracer live(true);
    {
        ScopedSpan a(live, "cache.outer");
        ScopedSpan b(live, "trace.inner");
    }
    expect(live.spans().size() == 2 && live.spans()[1].parent == 0 &&
               live.spans()[0].parent == -1,
           "scoped spans record their parent");
    const Ledger ll = buildLedger(live.spans(), {"cache", "trace"});
    expect(near(ll.layerSelf.at("cache") + ll.layerSelf.at("trace") +
                    ll.unattributed,
                ll.wall),
           "live ledger sums to wall");
    Tracer off(false);
    {
        ScopedSpan a(off, "cache.outer");
    }
    expect(off.spans().empty(), "a disabled tracer records nothing");
}

void
testSequences()
{
    SequenceSpec spec;
    const auto a = makeRequestSequence(7, spec);
    const auto b = makeRequestSequence(7, spec);
    const auto c = makeRequestSequence(8, spec);
    const std::map<tlc::Benchmark, std::string> files;
    auto docs = [&](const std::vector<ServedRequest> &s) {
        std::vector<std::string> out;
        for (const ServedRequest &r : s)
            out.push_back(requestDocument(r, 250000, files));
        return out;
    };
    expect(a.size() == spec.requests, "sequence length");
    expect(docs(a) == docs(b), "same seed, same documents");
    expect(docs(a) != docs(c), "different seed, different documents");

    std::size_t repeats = 0;
    std::set<std::string> seen;
    std::set<std::tuple<int, std::uint32_t, std::uint64_t, std::uint64_t>>
        asked;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const std::string d = requestDocument(a[i], 250000, files);
        if (a[i].repeat) {
            ++repeats;
            expect(a[i].id < i && d == requestDocument(a[a[i].id], 250000,
                                                       files),
                   "a repeat repeats an earlier document");
        } else {
            expect(a[i].id == i && a[i].configs.size() ==
                                       spec.configsPerRequest,
                   "a new request has its own id and full size");
            expect(seen.insert(d).second, "new documents are distinct");
            for (const auto &[l1, l2] : a[i].configs) {
                expect(asked.insert({static_cast<int>(a[i].bench),
                                     a[i].l2Assoc, l1, l2})
                           .second,
                       "a new request asks only for new configurations");
            }
        }
    }
    expect(!a.front().repeat, "the first request is new");
    expect(repeats == 140, "exactly 70% repeats");

    // New requests are spread evenly over the benchmarks.
    std::map<tlc::Benchmark, int> perBench;
    for (const ServedRequest &r : a) {
        if (!r.repeat)
            ++perBench[r.bench];
    }
    for (const auto &[bench, n] : perBench)
        expect(n == 8 || n == 9, "new requests balanced per benchmark");
    expect(perBench.size() == 7, "every benchmark is asked for");
}

} // namespace

int
main()
{
    testPercentiles();
    testLedger();
    testSequences();
    if (failures) {
        std::fprintf(stderr, "%d expectation(s) failed\n", failures);
        return 1;
    }
    std::puts("perfbench self-test: all expectations held");
    return 0;
}
