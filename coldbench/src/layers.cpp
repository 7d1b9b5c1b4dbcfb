#include "layers.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace coldbench {

namespace {

using so::trace::Category;
using so::trace::SpanRecord;

struct MetricDef
{
    const char *name;
    const char *unit;
};

constexpr MetricDef kMetrics[] = {
    {"core.plan_s", "s"},
    {"runtime.sweep_run_s", "s"},
    {"runtime.result_json_s", "s"},
    {"runtime.enumerate_s", "s"},
    {"runtime.evaluate_s", "s"},
    {"runtime.select_s", "s"},
    {"runtime.cache_probe_s", "s"},
    {"runtime.candidates_per_cell", "count"},
    {"sim.build_s", "s"},
    {"sim.schedule_s", "s"},
    {"sim.tasks_per_op", "count"},
    {"sim.schedule_tasks_per_s", "1/s"},
    {"sim.profile_s", "s"},
    {"sim.energy_s", "s"},
    {"sim.export_trace_s", "s"},
    {"sim.export_profile_s", "s"},
    {"sim.export_shards_s", "s"},
    {"sim.export_bytes_per_task", "count"},
    {"common.serialize_s", "s"},
    {"common.pool_queue_wait_p50_s", "s"},
    {"common.pool_busy_frac", "fraction"},
    {"optim.adam_bytes_per_s", "B/s"},
    {"optim.adam_roofline_frac", "fraction"},
    {"untraced_s", "s"},
    {"attributed_frac", "fraction"},
    {"trace_overhead_frac", "fraction"},
};

bool
is(const SpanRecord &s, Category cat, const char *name)
{
    return s.category == cat && std::strcmp(s.name, name) == 0;
}

/** The calls whose self time is the work no span names yet. */
bool
composite(const SpanRecord &s)
{
    return is(s, Category::Bench, kOpSpan) ||
           is(s, Category::Bench, "core.plan") ||
           is(s, Category::Bench, "runtime.sweep_run");
}

double
arg(const SpanRecord &s, const char *key)
{
    for (int i = 0; i < 2; ++i)
        if (s.arg_key[i] != nullptr && std::strcmp(s.arg_key[i], key) == 0)
            return s.arg_val[i];
    return 0.0;
}

} // namespace

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

const std::vector<std::string> &
layerMetricNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const MetricDef &m : kMetrics)
            out.emplace_back(m.name);
        return out;
    }();
    return names;
}

const char *
layerMetricUnit(const std::string &name)
{
    for (const MetricDef &m : kMetrics)
        if (name == m.name)
            return m.unit;
    throw std::logic_error("unknown per-layer metric " + name);
}

Intervals
unite(Intervals spans)
{
    std::sort(spans.begin(), spans.end());
    Intervals out;
    for (const auto &[b, e] : spans) {
        if (e <= b)
            continue;
        if (!out.empty() && b <= out.back().second)
            out.back().second = std::max(out.back().second, e);
        else
            out.emplace_back(b, e);
    }
    return out;
}

Intervals
intersect(const Intervals &a, const Intervals &b)
{
    Intervals out;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() && j < b.size()) {
        const double lo = std::max(a[i].first, b[j].first);
        const double hi = std::min(a[i].second, b[j].second);
        if (lo < hi)
            out.emplace_back(lo, hi);
        if (a[i].second < b[j].second)
            ++i;
        else
            ++j;
    }
    return out;
}

Intervals
subtract(const Intervals &a, const Intervals &b)
{
    Intervals out;
    std::size_t j = 0;
    for (auto [lo, hi] : a) {
        while (j < b.size() && b[j].second <= lo)
            ++j;
        for (std::size_t k = j; k < b.size() && b[k].first < hi; ++k) {
            if (b[k].first > lo)
                out.emplace_back(lo, b[k].first);
            lo = std::max(lo, b[k].second);
        }
        if (lo < hi)
            out.emplace_back(lo, hi);
    }
    return out;
}

double
measure(const Intervals &spans)
{
    double total = 0.0;
    for (const auto &[b, e] : spans)
        total += e - b;
    return total;
}

LayerAccumulator::LayerAccumulator(std::size_t pool_workers)
    : workers_(pool_workers)
{
}

bool
LayerAccumulator::addOp(const so::trace::CollectedTrace &trace)
{
    const SpanRecord *op = nullptr;
    for (const SpanRecord &s : trace.spans)
        if (is(s, Category::Bench, kOpSpan))
            op = &s;
    if (op == nullptr || trace.dropped > 0)
        return false;
    const std::uint32_t main_tid = op->tid;

    // The calling thread is blocked, not busy, while pool workers run
    // its jobs and it is inside no span of the program's own.
    std::map<std::uint32_t, Intervals> jobs_by_tid;
    Intervals main_program;
    for (const SpanRecord &s : trace.spans) {
        if (s.tid != main_tid && is(s, Category::Pool, "job"))
            jobs_by_tid[s.tid].emplace_back(s.t0, s.t1);
        if (s.tid == main_tid && s.category != Category::Bench)
            main_program.emplace_back(s.t0, s.t1);
    }
    Intervals any_job;
    double job_s = 0.0;
    for (auto &[tid, jobs] : jobs_by_tid) {
        jobs = unite(std::move(jobs));
        job_s += measure(jobs);
        any_job.insert(any_job.end(), jobs.begin(), jobs.end());
    }
    const Intervals blocked =
        subtract(intersect(unite({{op->t0, op->t1}}), unite(any_job)),
                 unite(std::move(main_program)));

    // Self time per span, thread by thread, from the nesting.
    std::map<std::uint32_t, std::vector<const SpanRecord *>> by_tid;
    for (const SpanRecord &s : trace.spans)
        by_tid[s.tid].push_back(&s);
    for (auto &[tid, spans] : by_tid) {
        std::sort(spans.begin(), spans.end(),
                  [](const SpanRecord *a, const SpanRecord *b) {
                      return a->t0 != b->t0 ? a->t0 < b->t0 : a->t1 > b->t1;
                  });
        std::vector<Intervals> children(spans.size());
        std::vector<std::size_t> open;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            while (!open.empty() && spans[open.back()]->t1 <= spans[i]->t0)
                open.pop_back();
            if (!open.empty())
                children[open.back()].emplace_back(spans[i]->t0,
                                                   spans[i]->t1);
            open.push_back(i);
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const SpanRecord &s = *spans[i];
            Intervals own =
                subtract(unite({{s.t0, s.t1}}), unite(children[i]));
            if (tid == main_tid)
                own = subtract(own, blocked);
            const double self = measure(own);
            Total &t = totals_[{static_cast<int>(s.category), s.name}];
            t.inclusive_s += s.t1 - s.t0;
            t.self_s += self;
            ++t.count;
            if (!composite(s))
                named_self_s_ += self;
            if (is(s, Category::Sim, "schedule"))
                scheduled_tasks_ += arg(s, "tasks");
            if (is(s, Category::Sweep, "enumerate"))
                enumerated_units_ += arg(s, "units");
            if (is(s, Category::Sweep, "cache-probe"))
                probe_hits_ += arg(s, "hit");
            if (tid != main_tid && is(s, Category::Pool, "job"))
                queue_waits_.push_back(arg(s, "queue_wait_s"));
        }
    }
    const double wall = op->t1 - op->t0;
    busy_s_ += wall - measure(blocked) + job_s;
    job_s_ += job_s;
    op_wall_s_ += wall;
    ++ops_;
    return true;
}

std::map<std::string, double>
LayerAccumulator::metrics() const
{
    const double ops = static_cast<double>(std::max<std::size_t>(ops_, 1));
    auto total = [&](Category cat, const char *name) {
        const auto it = totals_.find({static_cast<int>(cat), name});
        return it == totals_.end() ? Total{} : it->second;
    };
    auto per_op = [&](Category cat, const char *name) {
        return total(cat, name).inclusive_s / ops;
    };
    double serialize_self = 0.0;
    for (const auto &[key, t] : totals_)
        if (key.first == static_cast<int>(Category::Serialize))
            serialize_self += t.self_s;
    std::map<std::string, double> m;
    m["core.plan_s"] = per_op(Category::Bench, "core.plan");
    m["runtime.sweep_run_s"] = per_op(Category::Bench, "runtime.sweep_run");
    m["runtime.result_json_s"] =
        per_op(Category::Bench, "runtime.result_json");
    m["runtime.enumerate_s"] = per_op(Category::Sweep, "enumerate");
    m["runtime.evaluate_s"] = per_op(Category::Sweep, "evaluate");
    m["runtime.select_s"] = per_op(Category::Sweep, "select");
    m["runtime.cache_probe_s"] = per_op(Category::Sweep, "cache-probe");
    const double evaluated_cells =
        static_cast<double>(total(Category::Sweep, "fingerprint").count) -
        probe_hits_;
    m["runtime.candidates_per_cell"] =
        evaluated_cells > 0.0 ? enumerated_units_ / evaluated_cells : 0.0;
    m["sim.build_s"] = per_op(Category::Bench, "sim.build");
    const double schedule_s = total(Category::Sim, "schedule").inclusive_s;
    m["sim.schedule_s"] = schedule_s / ops;
    m["sim.tasks_per_op"] = scheduled_tasks_ / ops;
    m["sim.schedule_tasks_per_s"] =
        schedule_s > 0.0 ? scheduled_tasks_ / schedule_s : 0.0;
    m["sim.profile_s"] = per_op(Category::Profile, "profile");
    m["sim.energy_s"] = per_op(Category::Profile, "energy");
    m["sim.export_trace_s"] = per_op(Category::Bench, "sim.export_trace");
    m["sim.export_profile_s"] =
        per_op(Category::Bench, "sim.export_profile");
    m["sim.export_shards_s"] = per_op(Category::Bench, "sim.export_shards");
    m["common.serialize_s"] = serialize_self / ops;
    m["common.pool_queue_wait_p50_s"] = quantile(queue_waits_, 0.5);
    m["common.pool_busy_frac"] =
        workers_ > 0 && op_wall_s_ > 0.0
            ? job_s_ / (static_cast<double>(workers_) * op_wall_s_)
            : 0.0;
    m["untraced_s"] = std::max(0.0, busy_s_ - named_self_s_) / ops;
    m["attributed_frac"] = busy_s_ > 0.0 ? named_self_s_ / busy_s_ : 0.0;
    return m;
}

} // namespace coldbench
