/**
 * @file
 * The benchmark's three workloads. Each one:
 *  - sets up from the seed alone: synthesizes the seven benchmark
 *    traces as variant `seed` and writes them as v3 trace files,
 *    which is how the program receives them;
 *  - runs one timed pass through the library's public sweep entry
 *    point (its single `sweep*` function in workloads.cc);
 *  - checks that pass's outputs against an independent reference,
 *    outside the timed region;
 *  - replays the same work on one thread through the individual
 *    layer calls, with a span around each, for the per-layer ledger.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ledger.hh"
#include "trace/workload.hh"

namespace perfbench {

/** Everything a workload may depend on besides its own code. */
struct Environment
{
    std::uint64_t seed = 1;
    std::string workDir; ///< scratch directory (created, then removed)
};

/** What one untraced pass measured and produced. */
struct PassResult
{
    double wallSeconds = 0.0;
    std::vector<double> reqMs; ///< per-request latency
    std::vector<bool> warm;    ///< parallel to reqMs
    std::uint64_t points = 0;  ///< design points priced
    std::uint64_t laneRefs = 0; ///< simulated (config x reference) pairs
    std::uint64_t attempted = 0; ///< points + requests
    std::uint64_t failed = 0;    ///< failed points + failed requests
    std::uint64_t digest = 0;    ///< hash of every output, in order
};

/** Outcome of the output checks. */
struct CheckResult
{
    std::uint64_t checked = 0;
    std::uint64_t mismatches = 0;
    std::vector<std::string> notes; ///< one line per mismatch
};

/** Counters a replay gathers next to its spans (per-layer metrics). */
using Counters = std::map<std::string, double>;

class Workload
{
  public:
    virtual ~Workload() = default;

    /** References per synthesized trace. */
    virtual std::uint64_t traceRefs() const = 0;

    /** Synthesize + encode traces and start whatever the pass needs,
     *  under spans of @p tracer. Each setup starts from nothing. */
    virtual void setup(Tracer &tracer) = 0;
    /** Stop and delete what setup() made. */
    virtual void teardown() = 0;

    /** One timed pass through the public sweep entry point. */
    virtual PassResult pass() = 0;
    /** Check the outputs of the last pass. */
    virtual CheckResult check() = 0;

    /**
     * Replay a pass's work on one thread through the layer calls,
     * each under a span of @p tracer, adding counters to @p counters.
     * Returns the same output digest pass() would, and counts
     * internal mismatches in @p checks.
     */
    virtual std::uint64_t replay(Tracer &tracer, Counters &counters,
                                 CheckResult &checks) = 0;

    /** "name:hash" of every trace file of the current setup. */
    std::string traceDigests() const;

  protected:
    explicit Workload(Environment env) : env_(std::move(env)) {}

    /** Synthesize and encode every benchmark trace into setDir(). */
    void writeTraces(Tracer &tracer);
    /** (Re)create the per-setup directory. */
    void freshSetDir();
    void removeSetDir();
    std::string setDir() const { return env_.workDir + "/set"; }

    Environment env_;
    /** Benchmark -> trace file of the current setup. */
    std::map<tlc::Benchmark, std::string> files_;
};

/** "paper", "served" or "isolated"; null for any other name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const Environment &env);

/**
 * Mean relative error, in percent, of the simulated 32 KB
 * direct-mapped miss rates of espresso, eqntott and tomcatv against
 * the paper's 1.00%, 1.49% and 10.9%, pooled over trace variants
 * 1..4 at 1M references: traces held back from the variant-0
 * calibration, and the same for every seed.
 */
double anchorErrorPct();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
