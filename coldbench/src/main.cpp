/**
 * @file
 * coldbench — the cold-path benchmark driver.
 *
 *   coldbench --workload NAME --seed N --seconds S --trace 0|1
 *             --work-dir DIR
 *
 * --trace 0 sets the workload up four to six times, runs whole passes
 * of the last set-up's op list for at least S seconds of op time with
 * so::trace off, checks every op's output, sets the workload up as many
 * times again, and reports the end-to-end metrics (setup_s is the median
 * of all set-ups). --trace 1 sets up once, runs S/2 seconds untraced
 * and S/2 traced, and reports the per-layer metrics. A table goes to
 * stdout first; the last line is one JSON object:
 *   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
 */
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include "common/trace.h"
#include "layers.h"
#include "workloads.h"

namespace {

using Clock = std::chrono::steady_clock;
using coldbench::Kind;
using coldbench::Workload;

/**
 * Set-ups before the measured window of an end-to-end run: at least
 * four, then more, up to six, while they have taken under
 * kSetupBudgetS. As many follow the window, so the set-ups whose median
 * is setup_s span the run as the ops do; on a shared host, speed drifts
 * over seconds and minutes.
 */
constexpr int kMinSetups = 4;
constexpr int kMaxSetups = 6;
constexpr double kSetupBudgetS = 5.0;

/**
 * A percentile is reported only with at least ten samples beyond it, so
 * op_p90_s needs a hundred ops. It goes to the table, not the result
 * line, whose metrics every workload must report.
 */
constexpr std::size_t kMinOpsForP90 = 100;

struct Args
{
    Kind kind = Kind::PlanQuery;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string work_dir;
};

bool
parseArgs(int argc, char **argv, Args &out)
{
    bool have[5] = {};
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            have[0] = coldbench::parseKind(val, out.kind);
        } else if (key == "--seed") {
            out.seed = std::strtoull(val.c_str(), &end, 10);
            have[1] = !val.empty() && *end == '\0';
        } else if (key == "--seconds") {
            out.seconds = std::strtod(val.c_str(), &end);
            have[2] = *end == '\0' && out.seconds > 0.0 &&
                      out.seconds <= 3600.0;
        } else if (key == "--trace") {
            have[3] = val == "0" || val == "1";
            out.trace = val == "1";
        } else if (key == "--work-dir") {
            out.work_dir = val;
            have[4] = !val.empty();
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && have[0] && have[1] && have[2] && have[3] &&
           have[4];
}

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/**
 * Move thread @p tid (0: the caller) to the next CPU it may run on, round
 * robin, and leave its affinity as it was, so threads it creates later
 * may run anywhere. A lone busy thread otherwise stays on one CPU, and on
 * a shared host each CPU's speed drifts on its own: on a 4-vCPU VM, the
 * same formatting loop ran a third slower on some vCPUs than on others
 * for minutes at a time, so a run timed whichever vCPU it landed on.
 */
void
moveToNextCpu(pid_t tid)
{
    static const auto allowed = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        std::vector<int> cpus;
        if (sched_getaffinity(0, sizeof set, &set) == 0)
            for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
                if (CPU_ISSET(cpu, &set))
                    cpus.push_back(cpu);
        return std::pair{set, cpus};
    }();
    static std::atomic<std::size_t> turn{0};
    const auto &[set, cpus] = allowed;
    if (cpus.size() < 2)
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[turn++ % cpus.size()], &one);
    if (sched_setaffinity(tid, sizeof one, &one) == 0)
        sched_setaffinity(tid, sizeof set, &set);
}

/**
 * While alive, moves the thread that made it to the next CPU every
 * kRotatePeriod, so each op, even a long one, is timed across every CPU.
 * It lives only around timed ops, which start no threads: a thread
 * started in the instant of a move would inherit the one CPU.
 */
class CpuRotation
{
  public:
    static constexpr std::chrono::milliseconds kRotatePeriod{20};

    CpuRotation() : client_(gettid()), thread_([this] { run(); }) {}
    ~CpuRotation()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        wake_.notify_one();
        thread_.join();
    }
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

  private:
    void
    run()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!wake_.wait_for(lock, kRotatePeriod, [this] { return stop_; }))
            moveToNextCpu(client_);
    }

    const pid_t client_;
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false;
    std::thread thread_;
};

/** Set @p args' workload up once, appending its set-up time to @p out. */
std::unique_ptr<Workload>
timedSetup(const Args &args, std::vector<double> &out)
{
    moveToNextCpu(0);
    const auto t0 = Clock::now();
    std::unique_ptr<Workload> w =
        coldbench::makeWorkload(args.kind, args.seed, args.work_dir);
    out.push_back(seconds(t0, Clock::now()));
    return w;
}

/** Everything a measured window produced. */
struct Window
{
    std::vector<double> op_s;
    double total_s = 0.0;
};

/**
 * Run whole passes of the op list, starting at op @p next, until the
 * timed op seconds reach @p budget_s. With @p layers, each op runs
 * under the tracer and its spans are folded in.
 */
Window
runWindow(Workload &w, std::size_t &next, double budget_s,
          coldbench::LayerAccumulator *layers)
{
    Window out;
    const CpuRotation rotation;
    const std::size_t pass = w.passLength();
    while (out.total_s < budget_s) {
        for (std::size_t i = 0; i < pass; ++i, ++next) {
            if (layers != nullptr)
                so::trace::clearAll();
            const auto t0 = Clock::now();
            {
                so::trace::Span span(so::trace::Category::Bench,
                                     coldbench::kOpSpan);
                w.runOp(next);
            }
            const double s = seconds(t0, Clock::now());
            out.op_s.push_back(s);
            out.total_s += s;
            if (layers != nullptr && !layers->addOp(so::trace::collect()))
                throw std::runtime_error(
                    "traced op lost its spans (ring overflow)");
            w.afterOp(next);
        }
    }
    return out;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
};

int
run(const Args &args)
{
    // The tracer stays off except in the traced half of --trace 1.
    so::trace::setEnabled(false);
    std::vector<double> setup_s;
    double setup_total_s = 0.0;
    std::unique_ptr<Workload> w;
    for (int i = 0; i < (args.trace ? 1 : kMaxSetups); ++i) {
        if (i >= kMinSetups && setup_total_s >= kSetupBudgetS)
            break;
        w.reset();
        w = timedSetup(args, setup_s);
        setup_total_s += setup_s.back();
    }
    const std::size_t setups_before = setup_s.size();

    std::vector<Metric> metrics;
    std::vector<Metric> table_only;
    std::size_t next = 1; // Op 0 was the warm-up.
    std::size_t attempted = 0;
    if (!args.trace) {
        const Window win = runWindow(*w, next, args.seconds, nullptr);
        const double rss = peakRssMb();
        metrics = {
            {"op_p50_s", coldbench::quantile(win.op_s, 0.5), "s",
             win.op_s.size()},
            {"items_per_s",
             w->itemsPerOp() * static_cast<double>(win.op_s.size()) /
                 win.total_s,
             "1/s", win.op_s.size()},
            {"peak_rss_mb", rss, "MB", 1},
        };
        attempted = win.op_s.size();
        if (attempted >= kMinOpsForP90)
            table_only.push_back({"op_p90_s",
                                  coldbench::quantile(win.op_s, 0.9), "s",
                                  attempted});
    } else {
        const Window plain = runWindow(*w, next, args.seconds / 2, nullptr);
        coldbench::LayerAccumulator layers(w->poolWorkers());
        so::trace::setEnabled(true);
        const Window traced = runWindow(*w, next, args.seconds / 2, &layers);
        so::trace::setEnabled(false);
        attempted = plain.op_s.size() + traced.op_s.size();

        std::map<std::string, double> values = layers.metrics();
        const double traced_p50 = coldbench::quantile(traced.op_s, 0.5);
        w->layerValues(traced_p50, values);
        values["trace_overhead_frac"] =
            traced_p50 / coldbench::quantile(plain.op_s, 0.5) - 1.0;
        for (const std::string &name : coldbench::layerMetricNames()) {
            const auto it = values.find(name);
            metrics.push_back({name, it == values.end() ? 0.0 : it->second,
                               coldbench::layerMetricUnit(name),
                               layers.ops()});
        }
    }

    const std::vector<std::string> checks = w->check();
    w.reset();
    if (!args.trace) {
        for (std::size_t i = 0; i < setups_before; ++i)
            timedSetup(args, setup_s).reset();
        metrics.insert(metrics.begin(),
                       {"setup_s", coldbench::quantile(setup_s, 0.5), "s",
                        setup_s.size()});
    }
    std::size_t failed = 0;
    for (const std::string &why : checks) {
        if (why.empty())
            continue;
        if (failed < 5)
            std::fprintf(stderr, "coldbench: check failed: %s\n",
                         why.c_str());
        ++failed;
    }
    if (checks.size() != attempted) {
        std::fprintf(stderr, "coldbench: %zu checks for %zu ops\n",
                     checks.size(), attempted);
        return 1;
    }

    std::printf("%-32s %18s %-8s %s\n", "metric", "value", "unit",
                "samples");
    for (const std::vector<Metric> *list : {&metrics, &table_only}) {
        for (const Metric &m : *list) {
            if (!std::isfinite(m.value)) {
                std::fprintf(stderr, "coldbench: %s is not finite\n",
                             m.name.c_str());
                return 1;
            }
            std::printf("%-32s %18.9g %-8s %zu\n", m.name.c_str(), m.value,
                        m.unit.c_str(), m.samples);
        }
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                failed == 0 && attempted > 0 ? "true" : "false", attempted,
                failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: %s --workload plan_query|export_250k|"
                     "adam_step --seed N --seconds S "
                     "--trace 0|1 --work-dir DIR\n",
                     argv[0]);
        return 2;
    }
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "coldbench: %s\n", e.what());
        return 1;
    }
}
