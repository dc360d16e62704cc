#include "requests.hh"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <tuple>

#include "core/system_config.hh"

namespace perfbench {

namespace {

/** splitmix64: a fixed, platform-independent generator, so the same
 *  seed yields the same sequence with every standard library. */
class SplitMix
{
  public:
    explicit SplitMix(std::uint64_t seed) : s_(seed) {}

    std::uint64_t next()
    {
        std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    std::size_t below(std::size_t n) { return next() % n; }
    double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }

  private:
    std::uint64_t s_;
};

constexpr std::uint32_t kAssocs[] = {1, 2, 4, 8};

/** Fisher-Yates shuffle driven by @p rng. */
template <typename T>
void
shuffle(std::vector<T> &v, SplitMix &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

} // namespace

std::vector<ServedRequest>
makeRequestSequence(std::uint64_t seed, const SequenceSpec &spec)
{
    // Every two-level (l1, l2) pair of the paper's design space.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pool;
    for (const tlc::SystemConfig &c : tlc::DesignSpace::enumerate(
             tlc::SystemAssumptions{}, false, true))
        pool.emplace_back(c.l1Bytes, c.l2Bytes);
    const std::size_t per =
        std::min(spec.configsPerRequest, pool.size());
    const auto &benches = tlc::Workloads::all();
    SplitMix rng(seed ^ 0x5e7fedu);

    // Stratified, so every seed asks for the same amount of work:
    // exactly round((1 - repeatShare) * requests) new requests (the
    // first among them), spread evenly over benchmarks and
    // associativities in a seeded order.
    std::vector<bool> isNew(spec.requests, false);
    if (spec.requests > 0) {
        const auto wanted = static_cast<std::size_t>(std::llround(
            (1.0 - spec.repeatShare) * static_cast<double>(spec.requests)));
        std::vector<std::size_t> later(spec.requests - 1);
        for (std::size_t i = 0; i < later.size(); ++i)
            later[i] = i + 1;
        shuffle(later, rng);
        isNew[0] = true;
        const std::size_t extra =
            std::min(later.size(), wanted > 0 ? wanted - 1 : 0);
        for (std::size_t i = 0; i < extra; ++i)
            isNew[later[i]] = true;
    }
    // (benchmark, associativity) pairs in seeded cycles that visit
    // every pair once, each round of seven covering every benchmark.
    std::vector<std::pair<tlc::Benchmark, std::uint32_t>> cycle;
    auto nextPair = [&] {
        if (cycle.empty()) {
            std::vector<tlc::Benchmark> b = benches;
            std::vector<std::uint32_t> a(std::begin(kAssocs),
                                         std::end(kAssocs));
            shuffle(b, rng);
            shuffle(a, rng);
            for (std::size_t round = a.size(); round-- > 0;) {
                for (std::size_t i = b.size(); i-- > 0;)
                    cycle.emplace_back(b[i], a[(i + round) % a.size()]);
            }
        }
        auto p = cycle.back();
        cycle.pop_back();
        return p;
    };

    std::set<std::tuple<int, std::uint32_t, std::size_t>> asked;
    std::vector<std::size_t> fresh; // indices of new requests
    std::vector<ServedRequest> out;
    out.reserve(spec.requests);
    for (std::size_t i = 0; i < spec.requests; ++i) {
        if (!isNew[i]) {
            ServedRequest r = out[fresh[rng.below(fresh.size())]];
            r.repeat = true;
            out.push_back(std::move(r));
            continue;
        }
        ServedRequest r;
        r.id = i;
        // The next (benchmark, associativity) with enough pairs never
        // asked for: a new request simulates every configuration it
        // holds, so each seed simulates the same number of lanes.
        std::vector<std::size_t> unseen;
        for (std::size_t tries = 0; unseen.size() < per; ++tries) {
            // Only a sequence longer than the pool can run dry; it
            // then starts over.
            if (tries == 2 * benches.size() * std::size(kAssocs))
                asked.clear();
            std::tie(r.bench, r.l2Assoc) = nextPair();
            unseen.clear();
            for (std::size_t k = 0; k < pool.size(); ++k) {
                if (!asked.count({static_cast<int>(r.bench), r.l2Assoc, k}))
                    unseen.push_back(k);
            }
        }
        shuffle(unseen, rng);
        unseen.resize(per);
        std::sort(unseen.begin(), unseen.end());
        for (std::size_t k : unseen) {
            asked.insert({static_cast<int>(r.bench), r.l2Assoc, k});
            r.configs.push_back(pool[k]);
        }
        fresh.push_back(i);
        out.push_back(std::move(r));
    }
    return out;
}

std::string
requestDocument(const ServedRequest &r, std::uint64_t trace_refs,
                const std::map<tlc::Benchmark, std::string> &trace_files)
{
    const char *bench = tlc::Workloads::info(r.bench).name;
    std::ostringstream os;
    os << "{\"schema\": \"tlc-sweep-request-v1\", \"tag\": \"req-"
       << r.id << "\", \"benchmarks\": [\"" << bench
       << "\"], \"assumptions\": {\"l2_assoc\": " << r.l2Assoc
       << ", \"policy\": \"inclusive\"}, \"configs\": [";
    for (std::size_t i = 0; i < r.configs.size(); ++i) {
        os << (i ? ", " : "") << "{\"l1_bytes\": " << r.configs[i].first
           << ", \"l2_bytes\": " << r.configs[i].second << "}";
    }
    os << "], \"evaluator\": {\"trace_refs\": " << trace_refs
       << ", \"warmup_fraction\": 0.1}";
    auto file = trace_files.find(r.bench);
    if (file != trace_files.end()) {
        os << ", \"trace_files\": {\"" << bench << "\": \"" << file->second
           << "\"}";
    }
    os << "}";
    return os.str();
}

std::uint64_t
fnv1a(std::string_view bytes, std::uint64_t h)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace perfbench
