#include "obs/plan_profile.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace secview::obs {

PlanProfileTable::PlanProfileTable(Options options)
    : stripes_n_(options.stripes == 0 ? 1 : options.stripes),
      stripes_(std::make_unique<Stripe[]>(stripes_n_)) {}

size_t PlanProfileTable::StripeFor(std::string_view signature) const {
  return std::hash<std::string_view>{}(signature) % stripes_n_;
}

void PlanProfileTable::Record(const std::vector<PlanStepRecord>& steps) {
  for (const PlanStepRecord& step : steps) {
    Stripe& stripe = stripes_[StripeFor(step.signature)];
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.entries.find(step.signature);
    if (it == stripe.entries.end()) {
      it = stripe.entries.emplace(step.signature, PlanStepRecord{}).first;
      it->second.signature = step.signature;
      it->second.axis = step.axis;
    }
    PlanStepRecord& rec = it->second;
    rec.queries += 1;
    rec.invocations += step.invocations;
    rec.in_cardinality += step.in_cardinality;
    rec.out_cardinality += step.out_cardinality;
    rec.nodes_touched += step.nodes_touched;
    rec.predicate_evals += step.predicate_evals;
    rec.sort_skips += step.sort_skips;
    rec.self_nanos += step.self_nanos;
    rec.total_nanos += step.total_nanos;
    rec.alloc_bytes += step.alloc_bytes;
    rec.alloc_count += step.alloc_count;
  }
  if (!steps.empty()) queries_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<PlanStepRecord> PlanProfileTable::Snapshot() const {
  std::vector<PlanStepRecord> rows;
  for (size_t i = 0; i < stripes_n_; ++i) {
    std::lock_guard<std::mutex> lock(stripes_[i].mu);
    for (const auto& [signature, rec] : stripes_[i].entries) {
      (void)signature;
      rows.push_back(rec);
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const PlanStepRecord& a, const PlanStepRecord& b) {
              if (a.nodes_touched != b.nodes_touched) {
                return a.nodes_touched > b.nodes_touched;
              }
              return a.signature < b.signature;
            });
  return rows;
}

std::vector<PlanStepRecord> PlanProfileTable::TopK(size_t k) const {
  std::vector<PlanStepRecord> rows = Snapshot();
  if (rows.size() > k) rows.resize(k);
  return rows;
}

size_t PlanProfileTable::steps() const {
  size_t n = 0;
  for (size_t i = 0; i < stripes_n_; ++i) {
    std::lock_guard<std::mutex> lock(stripes_[i].mu);
    n += stripes_[i].entries.size();
  }
  return n;
}

std::string RenderPlanProfileText(const std::vector<PlanStepRecord>& rows,
                                  size_t top_k, uint64_t queries) {
  std::string out = "plan profile: " + std::to_string(rows.size()) +
                    " step(s) across " + std::to_string(queries) +
                    " profiled query(s)\n";
  if (rows.empty()) return out;
  out += "top " + std::to_string(std::min(top_k, rows.size())) +
         " by exclusive nodes touched:\n";
  size_t shown = 0;
  for (const PlanStepRecord& row : rows) {
    if (shown++ >= top_k) break;
    std::string name = "  " + row.signature;
    if (name.size() < 30) name.resize(30, ' ');
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s axis=%s queries=%" PRIu64 " inv=%" PRIu64 " in=%" PRIu64
                  " out=%" PRIu64 " nodes=%" PRIu64 " preds=%" PRIu64
                  " skips=%" PRIu64 " self_us=%.1f total_us=%.1f\n",
                  name.c_str(), row.axis.c_str(), row.queries, row.invocations,
                  row.in_cardinality, row.out_cardinality, row.nodes_touched,
                  row.predicate_evals, row.sort_skips,
                  static_cast<double>(row.self_nanos) / 1e3,
                  static_cast<double>(row.total_nanos) / 1e3);
    out += buf;
  }
  return out;
}

Json PlanProfileJson(const std::vector<PlanStepRecord>& rows,
                     uint64_t queries) {
  Json doc = Json::Object();
  doc.Set("schema", Json(kProfileSchema));
  doc.Set("kind", Json("table"));
  doc.Set("queries", Json(queries));
  Json steps = Json::Array();
  for (const PlanStepRecord& row : rows) {
    Json j = Json::Object();
    j.Set("step", Json(row.signature));
    j.Set("axis", Json(row.axis));
    j.Set("queries", Json(row.queries));
    j.Set("invocations", Json(row.invocations));
    j.Set("in", Json(row.in_cardinality));
    j.Set("out", Json(row.out_cardinality));
    j.Set("nodes", Json(row.nodes_touched));
    j.Set("preds", Json(row.predicate_evals));
    j.Set("sort_skips", Json(row.sort_skips));
    j.Set("self_nanos", Json(row.self_nanos));
    j.Set("total_nanos", Json(row.total_nanos));
    j.Set("alloc_bytes", Json(row.alloc_bytes));
    j.Set("alloc_count", Json(row.alloc_count));
    steps.Append(std::move(j));
  }
  doc.Set("steps", std::move(steps));
  return doc;
}

namespace {

Status RequireString(const Json& obj, std::string_view key) {
  const Json* v = obj.Find(key);
  if (v == nullptr || !v->is_string()) {
    return Status::InvalidArgument("missing or non-string \"" +
                                   std::string(key) + "\"");
  }
  return Status::OK();
}

Status RequireNumber(const Json& obj, std::string_view key) {
  const Json* v = obj.Find(key);
  if (v == nullptr || !v->is_number()) {
    return Status::InvalidArgument("missing or non-number \"" +
                                   std::string(key) + "\"");
  }
  if (v->AsNumber() < 0) {
    return Status::InvalidArgument("negative \"" + std::string(key) + "\"");
  }
  return Status::OK();
}

constexpr const char* kStepNumberFields[] = {
    "invocations", "in",         "out",         "nodes",      "preds",
    "sort_skips",  "self_nanos", "total_nanos", "alloc_bytes", "alloc_count"};

/// Validates one plan-step object and adds its exclusive nodes to
/// `*nodes_sum` (recursively, children included).
Status ValidatePlanStep(const Json& step, uint64_t* nodes_sum) {
  if (!step.is_object()) {
    return Status::InvalidArgument("plan step is not an object");
  }
  SECVIEW_RETURN_IF_ERROR(RequireString(step, "step"));
  SECVIEW_RETURN_IF_ERROR(RequireString(step, "axis"));
  for (const char* field : kStepNumberFields) {
    SECVIEW_RETURN_IF_ERROR(RequireNumber(step, field));
  }
  *nodes_sum += static_cast<uint64_t>(step.Find("nodes")->AsNumber());
  const Json* children = step.Find("children");
  if (children == nullptr || !children->is_array()) {
    return Status::InvalidArgument("missing or non-array \"children\"");
  }
  for (const Json& child : children->items()) {
    SECVIEW_RETURN_IF_ERROR(ValidatePlanStep(child, nodes_sum));
  }
  return Status::OK();
}

}  // namespace

Status ValidateProfileLine(std::string_view line) {
  SECVIEW_ASSIGN_OR_RETURN(Json doc, Json::Parse(line));
  if (!doc.is_object()) {
    return Status::InvalidArgument("profile line is not a JSON object");
  }
  const Json* schema = doc.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->AsString() != kProfileSchema) {
    return Status::InvalidArgument(
        std::string("missing or wrong \"schema\" (want ") + kProfileSchema +
        ")");
  }
  SECVIEW_RETURN_IF_ERROR(RequireString(doc, "policy"));
  SECVIEW_RETURN_IF_ERROR(RequireString(doc, "query"));
  SECVIEW_RETURN_IF_ERROR(RequireString(doc, "hot_step"));
  SECVIEW_RETURN_IF_ERROR(RequireNumber(doc, "unix_micros"));
  const Json* counters = doc.Find("counters");
  if (counters == nullptr || !counters->is_object()) {
    return Status::InvalidArgument("missing or non-object \"counters\"");
  }
  for (const char* field :
       {"nodes_touched", "predicate_evals", "sort_skips"}) {
    SECVIEW_RETURN_IF_ERROR(RequireNumber(*counters, field));
  }
  const Json* plan = doc.Find("plan");
  if (plan == nullptr || !plan->is_array()) {
    return Status::InvalidArgument("missing or non-array \"plan\"");
  }
  uint64_t nodes_sum = 0;
  for (const Json& step : plan->items()) {
    SECVIEW_RETURN_IF_ERROR(ValidatePlanStep(step, &nodes_sum));
  }
  const uint64_t total =
      static_cast<uint64_t>(counters->Find("nodes_touched")->AsNumber());
  if (nodes_sum != total) {
    return Status::InvalidArgument(
        "plan steps' exclusive nodes sum to " + std::to_string(nodes_sum) +
        " but counters.nodes_touched is " + std::to_string(total));
  }
  return Status::OK();
}

Result<std::vector<Json>> ParseProfileJsonl(std::string_view text) {
  std::vector<Json> lines;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(pos, end - pos);
    ++line_no;
    pos = end + 1;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    Status st = ValidateProfileLine(line);
    if (!st.ok()) {
      return Status::InvalidArgument("line " + std::to_string(line_no) + ": " +
                                     st.message());
    }
    // Validation parsed once already; the second parse keeps the
    // validator's signature simple (string in, status out).
    SECVIEW_ASSIGN_OR_RETURN(Json doc, Json::Parse(line));
    lines.push_back(std::move(doc));
  }
  return lines;
}

namespace {

uint64_t NumberField(const Json& obj, std::string_view key) {
  const Json* v = obj.Find(key);
  return v != nullptr && v->is_number() ? static_cast<uint64_t>(v->AsNumber())
                                        : 0;
}

Status FlattenStepJson(const Json& step, std::vector<PlanStepRecord>* out) {
  if (!step.is_object()) {
    return Status::InvalidArgument("plan step is not an object");
  }
  const Json* sig = step.Find("step");
  if (sig == nullptr || !sig->is_string()) {
    return Status::InvalidArgument("plan step without a \"step\" signature");
  }
  PlanStepRecord* rec = nullptr;
  for (PlanStepRecord& existing : *out) {
    if (existing.signature == sig->AsString()) {
      rec = &existing;
      break;
    }
  }
  if (rec == nullptr) {
    out->emplace_back();
    rec = &out->back();
    rec->signature = sig->AsString();
    const Json* axis = step.Find("axis");
    if (axis != nullptr && axis->is_string()) rec->axis = axis->AsString();
  }
  rec->invocations += NumberField(step, "invocations");
  rec->in_cardinality += NumberField(step, "in");
  rec->out_cardinality += NumberField(step, "out");
  rec->nodes_touched += NumberField(step, "nodes");
  rec->predicate_evals += NumberField(step, "preds");
  rec->sort_skips += NumberField(step, "sort_skips");
  rec->self_nanos += NumberField(step, "self_nanos");
  rec->total_nanos += NumberField(step, "total_nanos");
  rec->alloc_bytes += NumberField(step, "alloc_bytes");
  rec->alloc_count += NumberField(step, "alloc_count");
  const Json* children = step.Find("children");
  if (children != nullptr && children->is_array()) {
    for (const Json& child : children->items()) {
      SECVIEW_RETURN_IF_ERROR(FlattenStepJson(child, out));
    }
  }
  return Status::OK();
}

}  // namespace

namespace {

void CollectSignatures(const Json& step, std::vector<std::string>& sigs) {
  const Json* sig = step.Find("step");
  if (sig != nullptr && sig->is_string() &&
      std::find(sigs.begin(), sigs.end(), sig->AsString()) == sigs.end()) {
    sigs.push_back(sig->AsString());
  }
  const Json* children = step.Find("children");
  if (children != nullptr && children->is_array()) {
    for (const Json& child : children->items()) {
      CollectSignatures(child, sigs);
    }
  }
}

}  // namespace

Status FlattenProfilePlanJson(const Json& plan,
                              std::vector<PlanStepRecord>* out) {
  if (!plan.is_array()) {
    return Status::InvalidArgument("\"plan\" is not an array");
  }
  for (const Json& step : plan.items()) {
    SECVIEW_RETURN_IF_ERROR(FlattenStepJson(step, out));
  }
  // Each signature present anywhere in this plan appeared in one more
  // query, no matter how many positions it held.
  std::vector<std::string> touched;
  for (const Json& step : plan.items()) CollectSignatures(step, touched);
  for (PlanStepRecord& rec : *out) {
    if (std::find(touched.begin(), touched.end(), rec.signature) !=
        touched.end()) {
      rec.queries += 1;
    }
  }
  return Status::OK();
}

}  // namespace secview::obs
