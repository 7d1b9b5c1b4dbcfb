#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "checks.h"
#include "layers.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/engine.h"
#include "core/report_json.h"
#include "hw/memory.h"
#include "hw/power.h"
#include "hw/presets.h"
#include "hw/topology.h"
#include "model/config.h"
#include "optim/adam.h"
#include "runtime/registry.h"
#include "runtime/sweep.h"
#include "sim/graph.h"
#include "sim/inspect.h"
#include "sim/profiler.h"
#include "sim/scheduler.h"
#include "sim/trace.h"
#include "sinks.h"

namespace coldbench {

namespace {

using so::trace::Category;
using so::trace::Span;

/** Independent stream for one use of the run seed. */
so::Rng
streamFor(std::uint64_t seed, std::uint64_t use, std::uint64_t index = 0)
{
    return so::Rng(seed * 0x9e3779b97f4a7c15ULL ^ (use << 48) ^ index);
}

enum Stream : std::uint64_t
{
    kPlanQueries = 1,
    kExportJitter,
    kAdamInit,
    kAdamGrad,
};

/** Fisher-Yates shuffle of [first, first + n) from @p rng. */
template <typename T>
void
shuffle(T *first, std::size_t n, so::Rng &rng)
{
    for (std::size_t i = n; i > 1; --i)
        std::swap(first[i - 1], first[rng.below(i)]);
}

std::string
hex(std::uint64_t x)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(x));
    return buf;
}

// ------------------------------------------------------------ plan_query

constexpr std::uint32_t kPlanChips[] = {1, 4, 16};
constexpr std::uint32_t kPlanSeqs[] = {512, 1024, 2048, 4096};
/** Global batch per Superchip: the seed pairs these with kPlanSeqs. */
constexpr std::uint32_t kPlanBatchPerChip[] = {2, 4, 8, 16};

/**
 * One pass of the plan_query op list: a stratified draw. Every
 * (Appendix-A preset, chips, seq) combination appears once; for each
 * (preset, chips) the seed pairs the four sequence lengths with a
 * permutation of the four batch sizes and draws each binding, then
 * shuffles the whole list. A plain random draw of a few hundred queries
 * would let the seed swing the mix of cheap and expensive queries, and
 * with it every timing, by far more than the machine does.
 */
std::vector<so::runtime::TrainSetup>
planQueries(std::uint64_t seed)
{
    so::Rng rng = streamFor(seed, kPlanQueries);
    std::vector<so::runtime::TrainSetup> out;
    for (const so::model::ModelConfig &model : so::model::modelPresets()) {
        for (std::uint32_t chips : kPlanChips) {
            std::uint32_t batch[std::size(kPlanBatchPerChip)];
            std::copy(std::begin(kPlanBatchPerChip),
                      std::end(kPlanBatchPerChip), batch);
            shuffle(batch, std::size(batch), rng);
            for (std::size_t k = 0; k < std::size(kPlanSeqs); ++k) {
                so::runtime::TrainSetup s;
                s.cluster = so::hw::gh200ClusterOf(chips);
                s.model = model;
                s.global_batch = chips * batch[k];
                s.seq = kPlanSeqs[k];
                s.binding = rng.bernoulli(0.5)
                                ? so::hw::NumaBinding::Colocated
                                : so::hw::NumaBinding::Remote;
                out.push_back(std::move(s));
            }
        }
    }
    shuffle(out.data(), out.size(), rng);
    return out;
}

std::string
describeQuery(const so::runtime::TrainSetup &s)
{
    std::ostringstream os;
    os << "model=" << s.model.name
       << " chips=" << s.cluster.totalSuperchips()
       << " batch=" << s.global_batch << " seq=" << s.seq << " binding="
       << (s.binding == so::hw::NumaBinding::Colocated ? "colocated"
                                                        : "remote");
    return os.str();
}

/**
 * What `superoffload_planner --compare --json` computes, without the
 * process: the SuperOffload plan, every registered baseline through a
 * fresh jobs-1 sweep, and the JSON of each result.
 */
class PlanQuery final : public Workload
{
  public:
    explicit PlanQuery(std::uint64_t seed)
        : queries_(planQueries(seed))
    {
        for (const std::string &name : so::runtime::baselineNames())
            baselines_.push_back(so::runtime::makeBaseline(name));
        json_.resize(baselines_.size());
        // The warm-up is not drawn from the seed: it is the query of the
        // stratified space with the highest peak memory (70B on 16
        // Superchips, batch 256, seq 4096), so set-up does the same work
        // and reaches the same high-water mark for every seed, and
        // peak_rss_mb does not depend on which batches the seed drew.
        so::runtime::TrainSetup warm;
        warm.cluster = so::hw::gh200ClusterOf(16);
        warm.model = so::model::modelPreset("70B");
        warm.global_batch = 256;
        warm.seq = 4096;
        runQuery(warm);
        if (std::string why = checkQuery(warm); !why.empty())
            throw std::runtime_error("warm-up query failed its check: " +
                                     why);
    }

    std::size_t passLength() const override { return queries_.size(); }
    double itemsPerOp() const override { return 1.0; }
    std::size_t poolWorkers() const override { return 0; }

    void
    runOp(std::size_t op) override
    {
        runQuery(queries_[op % queries_.size()]);
    }

    void
    afterOp(std::size_t op) override
    {
        failures_.push_back(checkQuery(queries_[op % queries_.size()]));
    }

    std::vector<std::string> check() override { return failures_; }

  private:
    void
    runQuery(const so::runtime::TrainSetup &setup)
    {
        {
            Span span(Category::Bench, "core.plan");
            report_ = engine_.plan(setup);
        }
        sweep_ = std::make_unique<so::runtime::SweepEngine>(
            so::runtime::SweepOptions{.jobs = 1, .name = "compare"});
        {
            Span span(Category::Bench, "runtime.sweep_run");
            for (const auto &system : baselines_)
                sweep_->add(*system, setup);
            sweep_->run();
        }
        Span span(Category::Bench, "runtime.result_json");
        plan_json_ = so::core::toJson(report_, setup);
        for (std::size_t i = 0; i < baselines_.size(); ++i)
            json_[i] = so::core::toJson(sweep_->result(i));
    }

    /** Check the outputs of the query just run, then release them. */
    std::string
    checkQuery(const so::runtime::TrainSetup &setup)
    {
        std::string why = checkPlan(report_, setup, plan_json_);
        for (std::size_t i = 0; i < baselines_.size() && why.empty(); ++i) {
            why = checkIteration(sweep_->result(i), json_[i]);
            if (!why.empty())
                why = baselines_[i]->name() + ": " + why;
        }
        if (!why.empty())
            why = describeQuery(setup) + ": " + why;
        sweep_.reset();
        return why;
    }

    std::vector<so::runtime::TrainSetup> queries_;
    so::core::SuperOffloadEngine engine_;
    std::vector<so::runtime::SystemPtr> baselines_;
    so::core::PlanReport report_;
    std::unique_ptr<so::runtime::SweepEngine> sweep_;
    std::string plan_json_;
    std::vector<std::string> json_;
    std::vector<std::string> failures_;
};

// ----------------------------------------------------------- export_250k

/**
 * Inputs of bench_sim_kernel's offload-shaped graph, sized as that bench
 * sizes its graphs: an accumulation loop of per-layer forward/backward
 * chains with D2H swap-outs and CPU optimizer steps on the last pass.
 * Durations are the kernel bench's, each jittered by up to ±20% from
 * the seed.
 */
struct ExportSpec
{
    static constexpr std::uint32_t kAccum = 4;
    std::size_t layers = 0;
    /** One duration per task, in build order. */
    std::vector<double> durations;
    /** Bytes each D2H swap-out moves (energy per-byte tolls). */
    double d2h_bytes = 64.0 * 1024 * 1024;
};

ExportSpec
exportSpec(std::uint64_t seed, std::size_t target_tasks)
{
    ExportSpec spec;
    spec.layers = std::max<std::size_t>(
        1, target_tasks / (2 * ExportSpec::kAccum + 3));
    const std::size_t tasks =
        2 * ExportSpec::kAccum * spec.layers + 2 * spec.layers + 1;
    spec.durations.reserve(tasks);
    so::Rng rng = streamFor(seed, kExportJitter, target_tasks);
    auto jitter = [&](double base) {
        spec.durations.push_back(base * rng.uniform(0.8, 1.2));
    };
    for (std::uint32_t step = 0; step < ExportSpec::kAccum; ++step) {
        for (std::size_t l = 0; l < spec.layers; ++l)
            jitter(1e-3);
        const bool last = step + 1 == ExportSpec::kAccum;
        for (std::size_t l = spec.layers; l-- > 0;) {
            jitter(2e-3);
            if (!last)
                continue;
            jitter(5e-4);
            jitter(8e-4);
        }
    }
    jitter(1e-4);
    return spec;
}

/** The export graph's resources, added in this order. */
constexpr const char *kExportResources[] = {"GPU", "D2H", "CPU"};
constexpr so::sim::ResourceId kGpu = 0;
constexpr so::sim::ResourceId kD2h = 1;
constexpr so::sim::ResourceId kCpu = 2;

so::sim::TaskGraph
buildExportGraph(const ExportSpec &spec)
{
    using so::sim::TaskId;
    using so::sim::kInvalidTask;
    const std::size_t layers = spec.layers;
    so::sim::TaskGraph g;
    for (const char *name : kExportResources)
        g.addResource(name);
    g.reserveTasks(spec.durations.size(), 16 * layers);
    g.reserveEdges(2 * ExportSpec::kAccum * layers + 4 * layers + 1);
    std::size_t next = 0;
    TaskId prev = kInvalidTask;
    std::vector<TaskId> opts;
    opts.reserve(layers);
    for (std::uint32_t step = 0; step < ExportSpec::kAccum; ++step) {
        for (std::size_t l = 0; l < layers; ++l) {
            const std::string label = "fwd L" + std::to_string(l);
            prev = prev == kInvalidTask
                       ? g.addTask(kGpu, spec.durations[next++], label)
                       : g.addTask(kGpu, spec.durations[next++], label,
                                   {prev});
        }
        const bool last = step + 1 == ExportSpec::kAccum;
        for (std::size_t l = layers; l-- > 0;) {
            prev = g.addTask(kGpu, spec.durations[next++],
                             "bwd L" + std::to_string(l), {prev});
            if (!last)
                continue;
            const TaskId moved =
                g.addTask(kD2h, spec.durations[next++],
                          "d2h g L" + std::to_string(l), {prev});
            opts.push_back(g.addTask(kCpu, spec.durations[next++],
                                     "adam (fused, per-bucket dispatch)",
                                     {moved}));
        }
    }
    g.addTask(kCpu, spec.durations[next++], "grad-norm+check", opts);
    return g;
}

/** GH200 electrical model of the export graph's resources. */
std::vector<so::sim::ResourcePower>
gh200Power()
{
    const so::hw::ClusterSpec cluster = so::hw::gh200Single();
    const so::hw::PowerModel model = so::hw::powerModel(
        cluster.node.superchip,
        so::hw::memoryHierarchy(cluster.node,
                                so::hw::NumaBinding::Colocated));
    std::vector<so::sim::ResourcePower> out;
    for (const char *name : kExportResources) {
        const so::hw::PowerProfile *p = model.find(name);
        if (p == nullptr)
            throw std::runtime_error(std::string("no GH200 power profile "
                                                 "for ") +
                                     name);
        out.push_back({p->busy_w, p->idle_w, p->joules_per_byte});
    }
    return out;
}

/** Tallies of one export op's three documents. */
struct ExportTallies
{
    Tally trace;
    Tally profile;
    Tally shards;
    bool shards_written = false;

    bool
    operator==(const ExportTallies &o) const
    {
        return trace == o.trace && profile == o.profile &&
               shards == o.shards && shards_written == o.shards_written;
    }
};

/**
 * Build, schedule, profile at Auto detail, meter energy, then stream the
 * Chrome trace, the profile document and the bundle shards to the
 * disk-free sinks. The graph is sized at 250k (227,271 tasks): past the
 * Summary threshold, so it takes the same bounded-memory paths as a 1M
 * export, yet small enough that a 25 s run holds about twenty ops.
 * On a shared 4-vCPU host a 1M op takes about 5 s, a 15 s run held
 * three, and host noise spread their medians by 25-28%.
 */
class Export final : public Workload
{
  public:
    static constexpr std::size_t kTasks = 250'000;
    /** How long the shard reader may lag behind the writer's close. */
    static constexpr double kDrainTimeoutS = 30.0;

    Export(std::uint64_t seed, const std::string &work_dir)
        : spec_(exportSpec(seed, kTasks)), power_(gh200Power()),
          work_dir_(work_dir),
          tasks_(static_cast<double>(spec_.durations.size())),
          fifo_((std::filesystem::path(work_dir) / "shards.fifo").string())
    {
        const std::uint64_t seen = fifo_.sessions();
        if (!exportOnce(spec_, nullptr).shards_written ||
            !fifo_.waitSession(seen, kDrainTimeoutS))
            throw std::runtime_error("warm-up export could not write its "
                                     "bundle shards");
    }

    std::size_t passLength() const override { return 1; }
    double itemsPerOp() const override { return tasks_; }
    std::size_t poolWorkers() const override { return 0; }

    void
    runOp(std::size_t) override
    {
        seen_ = fifo_.sessions();
        last_ = exportOnce(spec_, nullptr);
    }

    void
    afterOp(std::size_t) override
    {
        if (last_.shards_written) {
            const std::optional<Tally> shards =
                fifo_.waitSession(seen_, kDrainTimeoutS);
            last_.shards_written = shards.has_value();
            last_.shards = shards.value_or(Tally{});
        }
        ops_.push_back(last_);
    }

    std::vector<std::string>
    check() override
    {
        // Untimed reference export of the same graph to files: the
        // profile must parse and a query over the trace and the shards
        // must recover the schedule; every timed op must have streamed
        // exactly the same bytes.
        Reference ref;
        const ExportTallies want = exportOnce(spec_, &ref);
        std::string why =
            want.shards_written
                ? checkProfileDoc(ref.profile_text, ref.expect)
                : "the reference export could not write " + ref.shard_path;
        if (why.empty())
            why = checkExportFile(ref.trace_path, ref.expect);
        if (why.empty())
            why = checkExportFile(ref.shard_path, ref.expect);
        std::error_code ec;
        std::filesystem::remove(ref.trace_path, ec);
        std::filesystem::remove(ref.shard_path, ec);
        std::vector<std::string> out;
        for (const ExportTallies &op : ops_) {
            if (!why.empty())
                out.push_back(why);
            else if (!op.shards_written)
                out.push_back("bundle shards could not be written");
            else if (!(op == want))
                out.push_back("exported bytes differ from the checked "
                              "reference export");
            else
                out.push_back("");
        }
        return out;
    }

    void
    layerValues(double, std::map<std::string, double> &out) const override
    {
        if (ops_.empty())
            return;
        const ExportTallies &t = ops_.back();
        out["sim.export_bytes_per_task"] =
            static_cast<double>(t.trace.bytes + t.profile.bytes +
                                t.shards.bytes) /
            tasks_;
    }

  private:
    /** Where the reference export goes, and what it must reproduce. */
    struct Reference
    {
        std::string trace_path;
        std::string shard_path;
        std::string profile_text;
        ExportExpect expect;
    };

    ExportTallies
    exportOnce(const ExportSpec &spec, Reference *ref)
    {
        so::sim::TaskGraph graph;
        {
            Span span(Category::Bench, "sim.build");
            graph = buildExportGraph(spec);
        }
        const so::sim::Schedule schedule = so::sim::Scheduler().run(graph);
        const so::sim::ProfileOptions options;
        const so::sim::ScheduleProfile profile =
            so::sim::profileSchedule(graph, schedule, options);
        so::sim::EnergyInputs inputs;
        inputs.resources = power_;
        inputs.task_bytes.assign(graph.taskCount(), 0.0);
        for (so::sim::TaskId t = 0; t < graph.taskCount(); ++t)
            if (graph.taskResource(t) == kD2h)
                inputs.task_bytes[t] = spec.d2h_bytes;
        const so::sim::EnergyProfile energy = so::sim::attributeEnergy(
            graph, schedule, profile, inputs, options);

        ExportTallies out;
        std::ofstream trace_file;
        std::ostringstream profile_text;
        if (ref != nullptr) {
            ref->trace_path =
                (std::filesystem::path(work_dir_) / "ref.trace.json")
                    .string();
            ref->shard_path =
                (std::filesystem::path(work_dir_) / "ref.bundle.jsonl")
                    .string();
            ref->expect = expectedExport(graph, profile);
            trace_file.open(ref->trace_path, std::ios::binary);
            if (!trace_file)
                throw std::runtime_error("cannot write " + ref->trace_path);
        }
        {
            Span span(Category::Bench, "sim.export_trace");
            CountingStream sink(ref != nullptr ? trace_file.rdbuf()
                                               : nullptr);
            so::sim::streamChromeTrace(sink, graph, schedule, profile);
            out.trace = sink.finish();
        }
        {
            Span span(Category::Bench, "sim.export_profile");
            CountingStream sink(ref != nullptr ? profile_text.rdbuf()
                                               : nullptr);
            so::sim::streamProfileJson(sink, profile, graph, schedule, 8,
                                       &energy);
            out.profile = sink.finish();
        }
        {
            Span span(Category::Bench, "sim.export_shards");
            out.shards_written = so::sim::writeBundleShards(
                ref != nullptr ? ref->shard_path : fifo_.path(), graph,
                schedule, profile, "export_250k", &energy);
        }
        if (ref != nullptr) {
            trace_file.close();
            ref->profile_text = profile_text.str();
            std::ifstream in(ref->shard_path, std::ios::binary);
            CountingStream digest;
            digest << in.rdbuf();
            out.shards = digest.finish();
        }
        return out;
    }

    ExportSpec spec_;
    std::vector<so::sim::ResourcePower> power_;
    std::string work_dir_;
    double tasks_ = 0.0;
    FifoCounter fifo_;
    /** Writer sessions the FIFO had seen before the current op. */
    std::uint64_t seen_ = 0;
    ExportTallies last_;
    std::vector<ExportTallies> ops_;
};

// ------------------------------------------------------------- adam_step

constexpr std::size_t kAdamBuckets = 8;
constexpr std::size_t kAdamParams = std::size_t{4} << 20;

/** Gradient of @p bucket: normal floats of either sign, |g| in [1e-4, 0.1). */
void
fillGrad(std::uint64_t seed, std::size_t bucket, std::vector<float> &out)
{
    so::Rng rng = streamFor(seed, kAdamGrad, bucket);
    for (float &g : out) {
        const double mag = rng.uniform(1e-4, 0.1);
        g = static_cast<float>(rng.bernoulli(0.5) ? mag : -mag);
    }
}

/**
 * One GraceAdam step with the fp16 shadow write on a 2-thread pool. The
 * op cycles over 8 buckets of 4M parameters, 576 MiB of optimizer state
 * in all, so each step streams from DRAM as offloaded training does.
 */
class AdamStep final : public Workload
{
  public:
    explicit AdamStep(std::uint64_t seed)
        : pool_(2), adam_(so::optim::AdamConfig{}, so::optim::AdamKernel::Grace,
                          &pool_)
    {
        probe_bytes_per_s_ = probeBandwidth();
        so::Rng init = streamFor(seed, kAdamInit);
        for (std::size_t b = 0; b < kAdamBuckets; ++b) {
            adam_.addParameter(kAdamParams);
            params_.emplace_back(kAdamParams);
            for (float &p : params_.back())
                p = static_cast<float>(init.uniform(-1.0, 1.0));
            fp16_.emplace_back(kAdamParams);
            grads_.emplace_back(kAdamParams);
            fillGrad(seed, b, grads_.back());
        }
        runOp(0);
        before_.param = params_[0];
        before_.m = adam_.momentum(0);
        before_.v = adam_.variance(0);
        steps_before_ = adam_.stepCount(0);
    }

    std::size_t passLength() const override { return kAdamBuckets; }
    double itemsPerOp() const override { return kAdamParams; }
    std::size_t poolWorkers() const override { return 2; }

    void
    runOp(std::size_t op) override
    {
        const std::size_t b = op % kAdamBuckets;
        Span span(Category::Bench, "optim.adam");
        adam_.stepWithFp16Shadow(b, params_[b].data(), fp16_[b].data(),
                                 grads_[b].data());
    }

    void
    afterOp(std::size_t op) override
    {
        buckets_.push_back(op % kAdamBuckets);
    }

    std::vector<std::string>
    check() override
    {
        AdamState after;
        after.param = params_[0];
        after.m = adam_.momentum(0);
        after.v = adam_.variance(0);
        const std::string why = checkAdamReplay(
            adam_.config(), before_, grads_[0], steps_before_ + 1,
            adam_.stepCount(0) - steps_before_, after, fp16_[0]);
        std::vector<std::string> out;
        for (std::size_t b : buckets_)
            out.push_back(b == 0 ? why : "");
        return out;
    }

    void
    layerValues(double op_p50_s,
                std::map<std::string, double> &out) const override
    {
        const double bytes_per_s =
            so::hw::CpuSpec::kAdamBytesPerParam * kAdamParams / op_p50_s;
        out["optim.adam_bytes_per_s"] = bytes_per_s;
        out["optim.adam_roofline_frac"] = bytes_per_s / probe_bytes_per_s_;
    }

  private:
    /**
     * STREAM-triad bandwidth of the same 2-thread pool over 384 MiB,
     * larger than the last-level cache: the roofline the step is
     * compared against. Median of five passes.
     */
    double
    probeBandwidth()
    {
        constexpr std::size_t n = std::size_t{32} << 20;
        std::vector<float> a(n, 0.0f), b(n, 1.0f), c(n, 2.0f);
        std::vector<double> rates;
        for (int rep = 0; rep < 5; ++rep) {
            const auto t0 = std::chrono::steady_clock::now();
            pool_.parallelFor(n, [&](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i)
                    a[i] = b[i] + 0.5f * c[i];
            });
            const double s = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
            rates.push_back(3.0 * sizeof(float) * n / s);
        }
        if (a[n / 2] != 2.0f)
            throw std::runtime_error("bandwidth probe computed garbage");
        return quantile(rates, 0.5);
    }

    so::ThreadPool pool_;
    so::optim::Adam adam_;
    std::vector<std::vector<float>> params_;
    std::vector<std::vector<so::optim::Half>> fp16_;
    std::vector<std::vector<float>> grads_;
    double probe_bytes_per_s_ = 0.0;
    AdamState before_;
    std::int64_t steps_before_ = 0;
    std::vector<std::size_t> buckets_;
};

} // namespace

void
Workload::layerValues(double, std::map<std::string, double> &) const
{
}

bool
parseKind(const std::string &name, Kind &out)
{
    for (Kind k : allKinds()) {
        if (name == kindName(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

const char *
kindName(Kind kind)
{
    switch (kind) {
    case Kind::PlanQuery:
        return "plan_query";
    case Kind::Export:
        return "export_250k";
    case Kind::AdamStep:
        return "adam_step";
    }
    return "?";
}

std::vector<Kind>
allKinds()
{
    return {Kind::PlanQuery, Kind::Export, Kind::AdamStep};
}

std::unique_ptr<Workload>
makeWorkload(Kind kind, std::uint64_t seed, const std::string &work_dir)
{
    switch (kind) {
    case Kind::PlanQuery:
        return std::make_unique<PlanQuery>(seed);
    case Kind::Export:
        return std::make_unique<Export>(seed, work_dir);
    case Kind::AdamStep:
        return std::make_unique<AdamStep>(seed);
    }
    return nullptr;
}

std::vector<std::string>
describeOps(Kind kind, std::uint64_t seed, std::size_t count)
{
    std::vector<std::string> out;
    switch (kind) {
    case Kind::PlanQuery: {
        const auto queries = planQueries(seed);
        for (std::size_t op = 0; op < count; ++op)
            out.push_back(describeQuery(queries[op % queries.size()]));
        break;
    }
    case Kind::Export: {
        const ExportSpec spec = exportSpec(seed, Export::kTasks);
        Digest d;
        d.update(reinterpret_cast<const char *>(spec.durations.data()),
                 spec.durations.size() * sizeof(double));
        for (std::size_t op = 0; op < count; ++op)
            out.push_back("tasks=" + std::to_string(spec.durations.size()) +
                          " durations=" + hex(d.value()));
        break;
    }
    case Kind::AdamStep: {
        std::vector<std::string> buckets;
        std::vector<float> grad(kAdamParams);
        for (std::size_t b = 0; b < kAdamBuckets; ++b) {
            fillGrad(seed, b, grad);
            Digest d;
            d.update(reinterpret_cast<const char *>(grad.data()),
                     grad.size() * sizeof(float));
            buckets.push_back("bucket=" + std::to_string(b) +
                              " grad=" + hex(d.value()));
        }
        for (std::size_t op = 0; op < count; ++op)
            out.push_back(buckets[op % kAdamBuckets]);
        break;
    }
    }
    return out;
}

} // namespace coldbench
