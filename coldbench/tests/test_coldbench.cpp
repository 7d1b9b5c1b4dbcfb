/**
 * @file
 * Tests of the benchmark itself: seeded op lists, the output checks
 * (each fed a correct and a perturbed output), the byte-counting sinks
 * and the per-layer attribution arithmetic.
 */
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "checks.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/report_json.h"
#include "hw/presets.h"
#include "layers.h"
#include "model/config.h"
#include "optim/adam.h"
#include "runtime/registry.h"
#include "sim/graph.h"
#include "sim/inspect.h"
#include "sim/profiler.h"
#include "sim/scheduler.h"
#include "sim/trace.h"
#include "sinks.h"
#include "workloads.h"

namespace {

using namespace coldbench;

so::runtime::TrainSetup
smallSetup(const char *model)
{
    so::runtime::TrainSetup s;
    s.cluster = so::hw::gh200Single();
    s.model = so::model::modelPreset(model);
    return s;
}

/** A scratch directory under the working directory, removed at the end. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &name)
        : path_(std::filesystem::current_path() / name)
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    std::string file(const std::string &name) const
    {
        return (path_ / name).string();
    }

  private:
    std::filesystem::path path_;
};

TEST(OpList, SameSeedSameListOtherSeedOtherList)
{
    for (Kind kind : allKinds()) {
        SCOPED_TRACE(kindName(kind));
        const auto a = describeOps(kind, 7, 16);
        EXPECT_EQ(a.size(), 16u);
        EXPECT_EQ(a, describeOps(kind, 7, 16));
        EXPECT_NE(a, describeOps(kind, 8, 16));
    }
}

TEST(OpList, WorkloadNamesRoundTrip)
{
    for (Kind kind : allKinds()) {
        Kind parsed = Kind::PlanQuery;
        ASSERT_TRUE(parseKind(kindName(kind), parsed));
        EXPECT_EQ(parsed, kind);
    }
    Kind ignored = Kind::PlanQuery;
    EXPECT_FALSE(parseKind("hit", ignored));
}

TEST(PlanCheck, AcceptsTheProgramsOutput)
{
    const so::runtime::TrainSetup setup = smallSetup("13B");
    const so::core::SuperOffloadEngine engine;
    const so::core::PlanReport report = engine.plan(setup);
    ASSERT_TRUE(report.feasible);
    EXPECT_EQ(checkPlan(report, setup, so::core::toJson(report, setup)), "");
    const auto ddp = so::runtime::makeBaseline("ddp");
    const so::runtime::IterationResult r = ddp->run(setup);
    EXPECT_EQ(checkIteration(r, so::core::toJson(r)), "");
}

TEST(PlanCheck, RejectsPerturbedOutputs)
{
    const so::runtime::TrainSetup setup = smallSetup("13B");
    const so::core::SuperOffloadEngine engine;
    const so::core::PlanReport report = engine.plan(setup);
    ASSERT_TRUE(report.feasible);
    const std::string json = so::core::toJson(report, setup);

    // A number the writer would have spelled differently.
    so::core::PlanReport nudged = report;
    nudged.iteration.iter_time *= 1.0 + 1e-9;
    EXPECT_NE(checkPlan(nudged, setup, json), "");

    // Feasible but no time.
    so::core::PlanReport zero = report;
    zero.iteration.iter_time = 0.0;
    EXPECT_NE(checkPlan(zero, setup, so::core::toJson(zero, setup)), "");

    // An energy partition that does not sum.
    so::core::PlanReport leaky = report;
    leaky.iteration.energy.total_j *= 1.01;
    EXPECT_NE(checkPlan(leaky, setup, so::core::toJson(leaky, setup)), "");

    // A document for another query.
    so::runtime::TrainSetup other = setup;
    other.seq *= 2;
    EXPECT_NE(checkPlan(report, other, json), "");

    // A document that does not parse.
    EXPECT_NE(checkPlan(report, setup, json.substr(0, json.size() / 2)),
              "");

    // Infeasible results must keep their reason.
    so::runtime::IterationResult oom;
    oom.infeasible_reason = "HBM: needs 2, capacity 1";
    const std::string oom_json = so::core::toJson(oom);
    EXPECT_EQ(checkIteration(oom, oom_json), "");
    oom.infeasible_reason = "DDR";
    EXPECT_NE(checkIteration(oom, oom_json), "");
}

/** A small offload-shaped schedule with several bundle shard lines. */
struct SmallExport
{
    so::sim::TaskGraph graph;
    so::sim::Schedule schedule;
    so::sim::ScheduleProfile profile;

    SmallExport()
    {
        const auto gpu = graph.addResource("GPU");
        const auto d2h = graph.addResource("D2H");
        const auto cpu = graph.addResource("CPU");
        so::sim::TaskId prev = graph.addTask(gpu, 1e-3, "fwd L0");
        for (int l = 1; l < 300; ++l) {
            prev = graph.addTask(gpu, 1e-3 * (1 + l % 3),
                                 "fwd L" + std::to_string(l), {prev});
            const auto moved = graph.addTask(
                d2h, 5e-4, "d2h g L" + std::to_string(l), {prev});
            graph.addTask(cpu, 8e-4, "adam", {moved});
        }
        schedule = so::sim::Scheduler().run(graph);
        profile = so::sim::profileSchedule(graph, schedule);
    }
};

TEST(ExportCheck, QueryRecoversTheScheduleFromTraceAndShards)
{
    const SmallExport ex;
    const ExportExpect expect = expectedExport(ex.graph, ex.profile);
    ScratchDir dir("coldbench_export_ok");
    {
        std::ofstream out(dir.file("t.trace.json"), std::ios::binary);
        so::sim::streamChromeTrace(out, ex.graph, ex.schedule, ex.profile);
    }
    ASSERT_TRUE(so::sim::writeBundleShards(dir.file("t.bundle.jsonl"),
                                           ex.graph, ex.schedule,
                                           ex.profile, "t", nullptr, 64));
    EXPECT_EQ(checkExportFile(dir.file("t.trace.json"), expect), "");
    EXPECT_EQ(checkExportFile(dir.file("t.bundle.jsonl"), expect), "");
    const std::string doc =
        so::sim::profileToJson(ex.profile, ex.graph, ex.schedule);
    EXPECT_EQ(checkProfileDoc(doc, expect), "");
    EXPECT_NE(checkProfileDoc(doc.substr(0, doc.size() - 2), expect), "");
}

TEST(ExportCheck, ADroppedShardLineFails)
{
    const SmallExport ex;
    const ExportExpect expect = expectedExport(ex.graph, ex.profile);
    ScratchDir dir("coldbench_export_drop");
    const std::string path = dir.file("t.bundle.jsonl");
    ASSERT_TRUE(so::sim::writeBundleShards(path, ex.graph, ex.schedule,
                                           ex.profile, "t", nullptr, 64));
    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        for (std::string line; std::getline(in, line);)
            lines.push_back(line);
    }
    ASSERT_GT(lines.size(), 3u);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        for (std::size_t i = 0; i < lines.size(); ++i)
            if (i != 2) // Line 0 is the header; 2 holds 64 tasks.
                out << lines[i] << '\n';
    }
    EXPECT_NE(checkExportFile(path, expect), "");
}

TEST(ExportCheck, AShiftedBusyTimeFails)
{
    const SmallExport ex;
    ExportExpect expect = expectedExport(ex.graph, ex.profile);
    ScratchDir dir("coldbench_export_busy");
    {
        std::ofstream out(dir.file("t.trace.json"), std::ios::binary);
        so::sim::streamChromeTrace(out, ex.graph, ex.schedule, ex.profile);
    }
    expect.busy_s[1] *= 1.001;
    EXPECT_NE(checkExportFile(dir.file("t.trace.json"), expect), "");
}

TEST(AdamCheck, GraceStepsMatchTheFusedReplayAndAnAlteredElementDoesNot)
{
    constexpr std::size_t n = 20000;
    so::ThreadPool pool(2);
    so::optim::Adam adam(so::optim::AdamConfig{},
                         so::optim::AdamKernel::Grace, &pool);
    adam.addParameter(n);
    AdamState before;
    before.param.resize(n);
    std::vector<float> grad(n);
    for (std::size_t i = 0; i < n; ++i) {
        before.param[i] = std::sin(0.001f * static_cast<float>(i));
        grad[i] = 1e-3f * std::cos(0.01f * static_cast<float>(i)) + 2e-4f;
    }
    before.m = adam.momentum(0);
    before.v = adam.variance(0);
    std::vector<float> param = before.param;
    std::vector<so::optim::Half> fp16(n);
    for (int s = 0; s < 3; ++s)
        adam.stepWithFp16Shadow(0, param.data(), fp16.data(), grad.data());
    AdamState after{param, adam.momentum(0), adam.variance(0)};
    EXPECT_EQ(checkAdamReplay(adam.config(), before, grad, 1, 3, after, fp16),
              "");
    EXPECT_NE(checkAdamReplay(adam.config(), before, grad, 1, 2, after, fp16),
              "");

    AdamState altered = after;
    altered.param[n / 2] = std::nextafter(altered.param[n / 2], 2.0f);
    EXPECT_NE(
        checkAdamReplay(adam.config(), before, grad, 1, 3, altered, fp16),
        "");
    std::vector<so::optim::Half> altered_fp16 = fp16;
    altered_fp16[7].bits ^= 1;
    EXPECT_NE(checkAdamReplay(adam.config(), before, grad, 1, 3, after,
                              altered_fp16),
              "");
}

TEST(Sinks, DigestIgnoresHowTheBytesAreSplit)
{
    std::string text;
    for (int i = 0; i < 100000; ++i)
        text += std::to_string(i * 7919) + ",";
    Digest whole;
    whole.update(text.data(), text.size());
    Digest pieces;
    for (std::size_t at = 0, step = 1; at < text.size(); at += step++)
        pieces.update(text.data() + at, std::min(step, text.size() - at));
    EXPECT_EQ(whole.value(), pieces.value());
    EXPECT_EQ(whole.bytes(), text.size());
    Digest other;
    std::string flipped = text;
    flipped[text.size() / 3] ^= 1;
    other.update(flipped.data(), flipped.size());
    EXPECT_NE(other.value(), whole.value());
}

TEST(Sinks, CountingStreamAndFifoAgreeWithTheWrittenBytes)
{
    std::string text;
    for (int i = 0; i < 200000; ++i)
        text += "{\"task\":" + std::to_string(i) + "}\n";
    Digest want;
    want.update(text.data(), text.size());

    std::ostringstream copy;
    CountingStream tee(copy.rdbuf());
    tee << text;
    const Tally counted = tee.finish();
    EXPECT_EQ(counted.bytes, text.size());
    EXPECT_EQ(counted.digest, want.value());
    EXPECT_EQ(copy.str(), text);

    ScratchDir dir("coldbench_fifo");
    FifoCounter fifo(dir.file("s.fifo"));
    for (int session = 0; session < 2; ++session) {
        const std::uint64_t seen = fifo.sessions();
        {
            std::ofstream out(fifo.path(), std::ios::binary);
            out << text;
        }
        const std::optional<Tally> t = fifo.waitSession(seen, 30.0);
        ASSERT_TRUE(t.has_value());
        EXPECT_EQ(t->bytes, text.size());
        EXPECT_EQ(t->digest, want.value());
    }
    EXPECT_FALSE(fifo.waitSession(fifo.sessions(), 0.05).has_value());
}

TEST(Layers, IntervalArithmetic)
{
    const Intervals a = unite({{0, 2}, {1, 3}, {5, 6}});
    EXPECT_EQ(a, (Intervals{{0, 3}, {5, 6}}));
    EXPECT_EQ(intersect(a, Intervals{{2, 5.5}}),
              (Intervals{{2, 3}, {5, 5.5}}));
    EXPECT_EQ(subtract(a, Intervals{{1, 2}, {5.5, 7}}),
              (Intervals{{0, 1}, {2, 3}, {5, 5.5}}));
    EXPECT_DOUBLE_EQ(measure(a), 4.0);
    EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4, 5}, 0.9), 4.6);
}

so::trace::SpanRecord
span(so::trace::Category cat, const char *name, double t0, double t1,
     std::uint32_t tid, const char *key = nullptr, double val = 0.0)
{
    so::trace::SpanRecord s;
    s.category = cat;
    s.name = name;
    s.t0 = t0;
    s.t1 = t1;
    s.tid = tid;
    s.arg_key[0] = key;
    s.arg_val[0] = val;
    return s;
}

TEST(Layers, SelfTimeBlockedTimeAndUntracedWork)
{
    using so::trace::Category;
    so::trace::CollectedTrace trace;
    // Main thread: a composite call with one scheduled graph inside,
    // then blocked on one pool job for [6, 9].
    trace.spans.push_back(span(Category::Bench, kOpSpan, 0, 10, 0));
    trace.spans.push_back(span(Category::Bench, "core.plan", 1, 5, 0));
    trace.spans.push_back(
        span(Category::Sim, "schedule", 2, 3, 0, "tasks", 100));
    trace.spans.push_back(
        span(Category::Pool, "job", 6, 9, 1, "queue_wait_s", 0.5));
    trace.spans.push_back(span(Category::Sweep, "evaluate", 6.5, 8.5, 1));

    LayerAccumulator acc(2);
    ASSERT_TRUE(acc.addOp(trace));
    const auto m = acc.metrics();
    EXPECT_DOUBLE_EQ(m.at("core.plan_s"), 4.0);
    EXPECT_DOUBLE_EQ(m.at("sim.schedule_s"), 1.0);
    EXPECT_DOUBLE_EQ(m.at("sim.tasks_per_op"), 100.0);
    EXPECT_DOUBLE_EQ(m.at("sim.schedule_tasks_per_s"), 100.0);
    EXPECT_DOUBLE_EQ(m.at("runtime.evaluate_s"), 2.0);
    EXPECT_DOUBLE_EQ(m.at("common.pool_queue_wait_p50_s"), 0.5);
    EXPECT_DOUBLE_EQ(m.at("common.pool_busy_frac"), 3.0 / 20.0);
    // Busy: 10 s of op minus 3 s blocked, plus the 3 s job = 10 s.
    // Named self: schedule 1 + evaluate 2 + job 1 = 4 s. The rest is
    // core.plan's own 3 s and the op's own 3 s outside the wait.
    EXPECT_DOUBLE_EQ(m.at("untraced_s"), 6.0);
    EXPECT_DOUBLE_EQ(m.at("attributed_frac"), 0.4);

    so::trace::CollectedTrace no_op;
    no_op.spans.push_back(span(Category::Sim, "schedule", 0, 1, 0));
    EXPECT_FALSE(acc.addOp(no_op));
}

} // namespace
