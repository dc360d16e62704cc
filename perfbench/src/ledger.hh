/**
 * @file
 * The benchmark's own measurement primitives: order statistics over
 * latency samples, and an in-memory span recorder whose spans are
 * folded into a per-layer self-time ledger.
 *
 * Spans are recorded by the benchmark around its calls into the
 * library's public functions, never inside the library. A span's
 * layer is the prefix of its name before the first '.', when that
 * prefix is one of the ledger's layers ("cache.inclusive" belongs to
 * "cache"); any other span ("bench.request") is the benchmark's own
 * bookkeeping. A span's self time is its duration minus the
 * durations of its direct children, so the layers' self times plus
 * the remainder (the bookkeeping spans' self time) add up exactly to
 * the summed duration of the root spans.
 */

#ifndef PERFBENCH_LEDGER_HH
#define PERFBENCH_LEDGER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** A nearest-rank percentile and how many samples it rests on. */
struct Percentile
{
    double value = 0.0;       ///< 0 when there are no samples
    std::size_t samples = 0;  ///< sample count
    std::size_t beyond = 0;   ///< samples strictly above value
};

/**
 * Nearest-rank @p p-th percentile (0 < p <= 100) of @p samples: the
 * smallest sample with at least p% of the samples at or below it.
 */
Percentile percentile(std::vector<double> samples, double p);

/** The median (nearest-rank 50th percentile) value; 0 if empty. */
double median(std::vector<double> samples);

/**
 * Indices, in order, of the samples of @p shares at or below their
 * median or @p floor, whichever is larger. With @p shares the share
 * of host CPU time stolen during each of a run's passes, that keeps
 * every pass when the host was quiet, and the calmer half when it
 * was not.
 */
std::vector<std::size_t> calmest(const std::vector<double> &shares,
                                 double floor);

/** One recorded interval, in seconds since the recorder's epoch. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1; ///< index of the enclosing span, -1 for a root
};

/**
 * Single-thread span recorder. A disabled recorder records nothing
 * and costs one branch per span, which is how the same replay code
 * runs untraced.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled);

    /** Open a span nested in the innermost open one; -1 if disabled. */
    int open(const char *name);
    /** Close span @p id (must be the innermost open span). */
    void close(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Write the spans as a chrome://tracing "traceEvents" document. */
    bool writeJson(const std::string &path) const;

  private:
    double now() const;

    bool enabled_;
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    int current_ = -1;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name)
        : tracer_(tracer), id_(tracer.open(name))
    {
    }
    ~ScopedSpan() { tracer_.close(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer_;
    int id_;
};

/** Self times of a finished span tree, by layer and by span name. */
struct Ledger
{
    double wall = 0.0;         ///< summed duration of the root spans
    double unattributed = 0.0; ///< wall minus every layer's self time
    std::map<std::string, double> layerSelf;   ///< layer -> seconds
    std::map<std::string, double> nameSelf;    ///< span name -> seconds
    std::map<std::string, double> nameTotal;   ///< inclusive seconds
    std::map<std::string, std::uint64_t> calls; ///< spans per name
};

/** Fold @p spans into a ledger over @p layers (every layer listed
 *  appears in layerSelf, with 0 when it recorded nothing). */
Ledger buildLedger(const std::vector<Span> &spans,
                   const std::vector<std::string> &layers);

} // namespace perfbench

#endif // PERFBENCH_LEDGER_HH
