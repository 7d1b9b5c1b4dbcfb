/**
 * @file
 * Per-layer attribution of traced ops.
 *
 * A traced op is bracketed by a Bench "op" span on the calling thread.
 * Inside it the benchmark's own Bench spans time the public calls into
 * each layer from outside (core.plan, runtime.sweep_run, sim.build,
 * sim.export_*, optim.adam ...), and the program's existing so::trace
 * spans (Sweep, Sim, Profile, Serialize, Pool) split them further.
 *
 * Self time is a span's duration minus what its child spans on the same
 * thread cover, and minus, on the calling thread, the time it sat
 * blocked while pool workers ran its jobs. Every span names a layer
 * except the op itself and the two composite calls, core.plan and
 * runtime.sweep_run, whose self time is the work no span names yet
 * (graph build, fit checks, result assembly): that is untraced_s.
 */
#ifndef COLDBENCH_LAYERS_H
#define COLDBENCH_LAYERS_H

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/trace.h"

namespace coldbench {

/** Name of the Bench span main() wraps around each traced op. */
inline constexpr const char *kOpSpan = "op";

/** Per-layer metric names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &layerMetricNames();

/** Unit of each per-layer metric. */
const char *layerMetricUnit(const std::string &name);

/**
 * The @p q quantile of @p values (0 <= q <= 1), linearly interpolated
 * between order statistics; 0 for no values.
 */
double quantile(std::vector<double> values, double q);

/** A set of disjoint, sorted [begin, end) intervals. */
using Intervals = std::vector<std::pair<double, double>>;

/** Sort and merge overlapping intervals. */
Intervals unite(Intervals spans);

/** Points in @p a and not in @p b (both united). */
Intervals subtract(const Intervals &a, const Intervals &b);

/** Points in both @p a and @p b (both united). */
Intervals intersect(const Intervals &a, const Intervals &b);

/** Total length of united intervals. */
double measure(const Intervals &spans);

/** Folds the spans of traced ops into per-layer metrics. */
class LayerAccumulator
{
  public:
    /** @p pool_workers: worker threads of the ops' pool (0: none). */
    explicit LayerAccumulator(std::size_t pool_workers);

    /**
     * Fold one op's spans, collected right after the op with the trace
     * cleared right before it. Returns false when the op span is
     * missing or spans were dropped.
     */
    bool addOp(const so::trace::CollectedTrace &trace);

    std::size_t ops() const { return ops_; }

    /**
     * Per-op per-layer metrics from the spans; the names a workload
     * measures itself, and trace_overhead_frac, are left out.
     */
    std::map<std::string, double> metrics() const;

  private:
    struct Total
    {
        double inclusive_s = 0.0;
        double self_s = 0.0;
        std::size_t count = 0;
    };

    std::size_t workers_;
    std::size_t ops_ = 0;
    double op_wall_s_ = 0.0;
    /** (category, name) -> totals over every folded op. */
    std::map<std::pair<int, std::string>, Total> totals_;
    double busy_s_ = 0.0;
    double named_self_s_ = 0.0;
    double job_s_ = 0.0;
    double scheduled_tasks_ = 0.0;
    double enumerated_units_ = 0.0;
    double probe_hits_ = 0.0;
    std::vector<double> queue_waits_;
};

} // namespace coldbench

#endif // COLDBENCH_LAYERS_H
