/**
 * @file
 * The `served` workload's seeded request sequence: a closed-loop
 * client's list of small explicit-configuration inclusive sweep
 * requests, mixing repeats of earlier requests (answered from the
 * result store) with new ones whose configurations were never asked
 * for before (simulated and appended).
 */

#ifndef PERFBENCH_REQUESTS_HH
#define PERFBENCH_REQUESTS_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/workload.hh"

namespace perfbench {

/** One request of the sequence. */
struct ServedRequest
{
    std::size_t id = 0;            ///< index of the request it repeats,
                                   ///< or its own index when new
    bool repeat = false;
    tlc::Benchmark bench = tlc::Benchmark::Gcc1;
    std::uint32_t l2Assoc = 4;
    /** (l1_bytes, l2_bytes) pairs, ascending. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> configs;
};

/** Shape of a sequence. */
struct SequenceSpec
{
    std::size_t requests = 200;
    std::size_t configsPerRequest = 12;
    double repeatShare = 0.7;
};

/**
 * Deterministic for a given (@p seed, @p spec). Exactly
 * round((1 - repeatShare) * requests) requests are new, the first
 * among them. New requests cycle through the benchmarks and L2
 * associativities in seeded order and hold only configurations no
 * earlier request of that pair asked for; repeats pick an earlier
 * new request uniformly.
 */
std::vector<ServedRequest> makeRequestSequence(std::uint64_t seed,
                                               const SequenceSpec &spec);

/**
 * The "tlc-sweep-request-v1" document of @p r over traces of
 * @p trace_refs references read from @p trace_files. A repeat's
 * document is byte-identical to the one of the request it repeats.
 */
std::string requestDocument(
    const ServedRequest &r, std::uint64_t trace_refs,
    const std::map<tlc::Benchmark, std::string> &trace_files);

/** 64-bit FNV-1a of @p bytes, continuing from @p h. */
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull);

} // namespace perfbench

#endif // PERFBENCH_REQUESTS_HH
