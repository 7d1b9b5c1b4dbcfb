/**
 * @file
 * The benchmark's three workloads: the cold paths a user of the planner
 * and simulator pays for, plus the one real host kernel.
 *
 *   plan_query    one planner query with --compare (core, runtime, sim)
 *   export_250k   build, schedule, profile, meter and export 227k tasks
 *   adam_step     one GraceAdam fp16-shadow step over a 4M bucket
 *
 * Each workload is a closed loop with one client. Its ops come from an
 * op list drawn from the seed; a run replays whole passes of that list,
 * so the op mix does not depend on how fast the machine is. Setup
 * (building systems and pools, drawing inputs, touching buffers, one
 * warm-up op) happens in makeWorkload(); only runOp() is timed. Output
 * checks run outside the timed op, in afterOp() and check().
 */
#ifndef COLDBENCH_WORKLOADS_H
#define COLDBENCH_WORKLOADS_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace coldbench {

enum class Kind
{
    PlanQuery,
    Export,
    AdamStep,
};

/** Parse a workload name; false when it names none. */
bool parseKind(const std::string &name, Kind &out);

const char *kindName(Kind kind);

/** Every workload, in the order BENCHMARK.json lists them. */
std::vector<Kind> allKinds();

/** A set-up workload, ready to run timed ops. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Ops in one pass of the op list; runs end on a pass boundary. */
    virtual std::size_t passLength() const = 0;

    /** Items one op processes: queries, cells, tasks or parameters. */
    virtual double itemsPerOp() const = 0;

    /** Worker threads of the pool the op uses; 0 when it uses none. */
    virtual std::size_t poolWorkers() const = 0;

    /** The timed op: op number @p op of the seeded op list. */
    virtual void runOp(std::size_t op) = 0;

    /** Untimed: keep what check() needs from the op just run. */
    virtual void afterOp(std::size_t op) = 0;

    /**
     * Untimed, after the last op: one entry per op run, empty when its
     * output checked out, else the reason it did not.
     */
    virtual std::vector<std::string> check() = 0;

    /**
     * Per-layer values the workload measures itself rather than through
     * spans, given the op median of the traced window.
     */
    virtual void layerValues(double op_p50_s,
                             std::map<std::string, double> &out) const;
};

/**
 * Build workload @p kind for @p seed: everything before the first timed
 * op, including one untimed warm-up op. @p work_dir is a directory the
 * workload may create scratch files in.
 */
std::unique_ptr<Workload> makeWorkload(Kind kind, std::uint64_t seed,
                                       const std::string &work_dir);

/**
 * The first @p count ops of @p kind's op list for @p seed, one line per
 * op. The same seed always gives the same list.
 */
std::vector<std::string> describeOps(Kind kind, std::uint64_t seed,
                                     std::size_t count);

} // namespace coldbench

#endif // COLDBENCH_WORKLOADS_H
