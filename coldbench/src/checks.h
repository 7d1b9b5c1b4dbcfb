/**
 * @file
 * Output checks of the benchmark's workloads. Each returns an empty
 * string when the output checks out and the reason otherwise, and takes
 * the output as plain data so the benchmark's tests can feed it a
 * perturbed copy and expect a failure.
 */
#ifndef COLDBENCH_CHECKS_H
#define COLDBENCH_CHECKS_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "optim/adam.h"
#include "runtime/system.h"
#include "sim/graph.h"
#include "sim/profiler.h"

namespace coldbench {

/**
 * Invariants of one evaluated result, and its result JSON (@p json, as
 * core::toJson wrote it) parsed back: feasible implies iter_time > 0;
 * the energy partition sums; the document reproduces feasibility and
 * every checked number at the writer's precision.
 */
std::string checkIteration(const so::runtime::IterationResult &result,
                           const std::string &json);

/**
 * checkIteration on the plan's iteration, plus the plan document
 * (core::toJson(report, setup)) naming the queried setup.
 */
std::string checkPlan(const so::core::PlanReport &report,
                      const so::runtime::TrainSetup &setup,
                      const std::string &json);

/** What an exported schedule must reproduce. */
struct ExportExpect
{
    std::uint64_t tasks = 0;
    double makespan_s = 0.0;
    std::vector<std::string> resources;
    std::vector<double> busy_s;
};

ExportExpect expectedExport(const so::sim::TaskGraph &graph,
                            const so::sim::ScheduleProfile &profile);

/** The profile document parses and names the schedule's size. */
std::string checkProfileDoc(const std::string &text,
                            const ExportExpect &expect);

/**
 * One so-report query pass over @p path (a Chrome trace or a bundle
 * shard file) recovers the task count and each resource's busy seconds.
 */
std::string checkExportFile(const std::string &path,
                            const ExportExpect &expect);

/** One Adam bucket's state. */
struct AdamState
{
    std::vector<float> param;
    std::vector<float> m;
    std::vector<float> v;
};

/**
 * Replay @p steps steps of the single-threaded fused kernel from
 * @p before with gradient @p grad (steps numbered from @p first_step),
 * then cast to fp16, and compare bit for bit with @p after and
 * @p after_fp16.
 */
std::string checkAdamReplay(const so::optim::AdamConfig &cfg,
                            const AdamState &before,
                            const std::vector<float> &grad,
                            std::int64_t first_step, std::int64_t steps,
                            const AdamState &after,
                            const std::vector<so::optim::Half> &after_fp16);

} // namespace coldbench

#endif // COLDBENCH_CHECKS_H
