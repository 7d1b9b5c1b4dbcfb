#include "checks.h"

#include <cmath>
#include <cstring>
#include <sstream>

#include "common/json.h"
#include "optim/half.h"
#include "report/query.h"

namespace coldbench {

namespace {

std::string
describe(const char *what, double got, double want)
{
    std::ostringstream os;
    os.precision(17);
    os << what << ": got " << got << ", want " << want;
    return os.str();
}

/** Relative closeness for sums of many rounded terms. */
bool
near(double got, double want, double rel)
{
    return std::fabs(got - want) <= rel * std::max(1.0, std::fabs(want));
}

/**
 * @p x as it reads back from the repository's JSON writer: the value a
 * round trip must reproduce at the writer's current precision.
 */
double
atWriterPrecision(double x)
{
    so::JsonWriter json;
    json.beginArray();
    json.value(x);
    json.endArray();
    so::JsonValue doc;
    if (!so::JsonValue::parse(json.str(), doc) || !doc.isArray() ||
        doc.items().size() != 1 || !doc.items()[0].isNumber())
        return std::nan("");
    return doc.items()[0].number();
}

/** The document's @p key reads back as @p want at writer precision. */
std::string
checkNumber(const so::JsonValue &obj, const char *key, double want)
{
    const so::JsonValue *v = obj.find(key);
    if (v == nullptr || !v->isNumber())
        return std::string("result JSON lacks ") + key;
    const double expect = atWriterPrecision(want);
    if (v->number() != expect)
        return describe(key, v->number(), expect);
    return "";
}

/** The parsed iteration object @p doc reproduces @p r. */
std::string
checkIterationDoc(const so::runtime::IterationResult &r,
                  const so::JsonValue &doc)
{
    const so::JsonValue *feasible = doc.find("feasible");
    if (feasible == nullptr || !feasible->isBool() ||
        feasible->boolean() != r.feasible)
        return "result JSON feasibility differs";
    if (!r.feasible) {
        const so::JsonValue *why = doc.find("infeasible_reason");
        if (why == nullptr || !why->isString() ||
            why->text() != r.infeasible_reason)
            return "result JSON infeasible_reason differs";
        return "";
    }
    const std::pair<const char *, double> numbers[] = {
        {"iter_time_s", r.iter_time},
        {"micro_batch", r.micro_batch},
        {"accum_steps", r.accum_steps},
        {"gpu_utilization", r.gpu_utilization},
        {"cpu_utilization", r.cpu_utilization},
        {"link_utilization", r.link_utilization},
    };
    for (const auto &[key, want] : numbers)
        if (std::string why = checkNumber(doc, key, want); !why.empty())
            return why;
    const so::JsonValue *energy = doc.find("energy");
    if (energy == nullptr || !energy->isObject())
        return "result JSON lacks energy";
    const std::pair<const char *, double> joules[] = {
        {"total_j", r.energy.total_j},
        {"active_j", r.energy.active_j},
        {"idle_j", r.energy.idle_j},
        {"background_j", r.energy.background_j},
        {"iter_j", r.energy.iter_j},
    };
    for (const auto &[key, want] : joules)
        if (std::string why = checkNumber(*energy, key, want); !why.empty())
            return why;
    return "";
}

/** Feasible implies iter_time > 0, and the energy partition sums. */
std::string
checkInvariants(const so::runtime::IterationResult &r)
{
    if (r.feasible) {
        if (!(r.iter_time > 0.0))
            return describe("feasible result with iter_time", r.iter_time,
                            1.0);
        const so::runtime::EnergySummary &e = r.energy;
        if (!e.valid)
            return "feasible result without energy accounting";
        if (!near(e.active_j + e.idle_j + e.background_j, e.total_j,
                  1e-9))
            return describe("energy partition active+idle+background",
                            e.active_j + e.idle_j + e.background_j,
                            e.total_j);
        double active = 0.0;
        double idle = 0.0;
        for (const auto &re : e.resources) {
            active += re.busy_j + re.transfer_j;
            idle += re.idle_j;
        }
        if (!near(active, e.active_j, 1e-9))
            return describe("per-resource active joules", active,
                            e.active_j);
        if (!near(idle, e.idle_j, 1e-9))
            return describe("per-resource idle joules", idle, e.idle_j);
    }
    return "";
}

} // namespace

std::string
checkIteration(const so::runtime::IterationResult &r,
               const std::string &json)
{
    if (std::string why = checkInvariants(r); !why.empty())
        return why;
    so::JsonValue doc;
    std::string error;
    if (!so::JsonValue::parse(json, doc, &error) || !doc.isObject())
        return "result JSON does not parse: " + error;
    return checkIterationDoc(r, doc);
}

std::string
checkPlan(const so::core::PlanReport &report,
          const so::runtime::TrainSetup &setup, const std::string &json)
{
    if (report.feasible != report.iteration.feasible)
        return "plan feasibility differs from its iteration";
    if (std::string why = checkInvariants(report.iteration); !why.empty())
        return "plan iteration: " + why;
    so::JsonValue doc;
    std::string error;
    if (!so::JsonValue::parse(json, doc, &error) || !doc.isObject())
        return "plan JSON does not parse: " + error;
    const so::JsonValue *s = doc.find("setup");
    const so::JsonValue *model = s != nullptr ? s->find("model") : nullptr;
    if (model == nullptr || !model->isString() ||
        model->text() != setup.model.name)
        return "plan JSON names another model";
    const std::pair<const char *, double> numbers[] = {
        {"superchips", setup.cluster.totalSuperchips()},
        {"global_batch", setup.global_batch},
        {"seq", setup.seq},
    };
    for (const auto &[key, want] : numbers)
        if (std::string why = checkNumber(*s, key, want); !why.empty())
            return "plan setup " + why;
    const so::JsonValue *feasible = doc.find("feasible");
    if (feasible == nullptr || !feasible->isBool() ||
        feasible->boolean() != report.feasible)
        return "plan JSON feasibility differs";
    const so::JsonValue *iteration = doc.find("iteration");
    if (iteration == nullptr || !iteration->isObject())
        return "plan JSON lacks its iteration";
    if (std::string why = checkIterationDoc(report.iteration, *iteration);
        !why.empty())
        return "plan iteration " + why;
    return "";
}

ExportExpect
expectedExport(const so::sim::TaskGraph &graph,
               const so::sim::ScheduleProfile &profile)
{
    ExportExpect e;
    e.tasks = graph.taskCount();
    e.makespan_s = profile.makespan;
    for (so::sim::ResourceId r = 0; r < graph.resourceCount(); ++r) {
        e.resources.push_back(graph.resource(r).name);
        e.busy_s.push_back(profile.resources[r].busy);
    }
    return e;
}

std::string
checkProfileDoc(const std::string &text, const ExportExpect &expect)
{
    so::JsonValue doc;
    std::string error;
    if (!so::JsonValue::parse(text, doc, &error) || !doc.isObject())
        return "profile document does not parse: " + error;
    if (std::string why = checkNumber(
            doc, "task_count", static_cast<double>(expect.tasks));
        !why.empty())
        return "profile " + why;
    if (std::string why = checkNumber(doc, "makespan_s", expect.makespan_s);
        !why.empty())
        return "profile " + why;
    return "";
}

std::string
checkExportFile(const std::string &path, const ExportExpect &expect)
{
    so::report::QueryOptions options;
    options.top_n = 1;
    so::report::QueryResult result;
    std::string error;
    if (!so::report::queryFiles({path}, options, result, &error))
        return "query over " + path + " failed: " + error;
    if (result.matched != expect.tasks)
        return describe(("spans in " + path).c_str(),
                        static_cast<double>(result.matched),
                        static_cast<double>(expect.tasks));
    for (std::size_t r = 0; r < expect.resources.size(); ++r) {
        double busy = 0.0;
        for (const auto &[name, agg] : result.by_resource)
            if (name == expect.resources[r])
                busy = agg.seconds;
        // Span times are rounded to the writer's precision, one
        // rounding per span; a million of them stay far inside 1e-6.
        if (!near(busy, expect.busy_s[r], 1e-6))
            return describe(("busy seconds of " + expect.resources[r] +
                             " in " + path)
                                .c_str(),
                            busy, expect.busy_s[r]);
    }
    return "";
}

std::string
checkAdamReplay(const so::optim::AdamConfig &cfg, const AdamState &before,
                const std::vector<float> &grad, std::int64_t first_step,
                std::int64_t steps, const AdamState &after,
                const std::vector<so::optim::Half> &after_fp16)
{
    const std::size_t n = before.param.size();
    if (grad.size() != n || after.param.size() != n ||
        after.m.size() != n || after.v.size() != n ||
        after_fp16.size() != n)
        return "Adam bucket sizes differ";
    AdamState ref = before;
    for (std::int64_t s = 0; s < steps; ++s)
        so::optim::adamStepFused(cfg, first_step + s, ref.param.data(),
                                 ref.m.data(), ref.v.data(), grad.data(),
                                 n);
    auto same = [n](const float *a, const float *b) {
        return std::memcmp(a, b, n * sizeof(float)) == 0;
    };
    if (!same(ref.param.data(), after.param.data()))
        return "Adam parameters differ from the fused reference";
    if (!same(ref.m.data(), after.m.data()))
        return "Adam momentum differs from the fused reference";
    if (!same(ref.v.data(), after.v.data()))
        return "Adam variance differs from the fused reference";
    for (std::size_t i = 0; i < n; ++i)
        if (!(so::optim::floatToHalf(ref.param[i]) == after_fp16[i]))
            return "fp16 shadow element " + std::to_string(i) +
                   " differs from floatToHalf of the reference";
    return "";
}

} // namespace coldbench
