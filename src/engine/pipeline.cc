#include "engine/pipeline.h"

#include <utility>

#include "common/strings.h"
#include "common/timer.h"
#include "data/csv.h"
#include "obs/trace.h"
#include "privacy/equivalence.h"
#include "privacy/kanonymity.h"
#include "privacy/tcloseness.h"

namespace tcm {

Result<ReleaseVerification> CheckRelease(const Dataset& release, size_t k,
                                         double t) {
  ReleaseVerification verification;
  // One grouping pass feeds both checks — grouping dominates verify cost,
  // and the k and t evaluators need the same equivalence classes.
  TCM_ASSIGN_OR_RETURN(auto classes, EquivalenceClasses(release));
  verification.k_anonymous = IsKAnonymous(classes, k);
  TCM_ASSIGN_OR_RETURN(verification.t_close, IsTClose(release, t, classes));
  return verification;
}

Status PrivacyViolationError(const ReleaseVerification& verification,
                             const std::string& context) {
  return Status::PrivacyViolation(
      context + "release failed re-verification: " +
      (verification.k_anonymous ? "" : "k-anonymity ") +
      (verification.t_close ? "" : "t-closeness"));
}

Result<Schema> SchemaWithRoles(
    const Schema& schema, const std::vector<std::string>& quasi_identifiers,
    const std::string& confidential) {
  auto describe_columns = [&schema]() {
    std::vector<std::string> names;
    names.reserve(schema.size());
    for (const Attribute& attribute : schema.attributes()) {
      names.push_back(attribute.name);
    }
    return JoinStrings(names, ", ");
  };
  Schema updated = schema;
  for (const std::string& name : quasi_identifiers) {
    auto with_role = updated.WithRole(name, AttributeRole::kQuasiIdentifier);
    if (!with_role.ok()) {
      return Status::InvalidArgument("quasi-identifier column '" + name +
                                     "' not found in input; available "
                                     "columns: " +
                                     describe_columns());
    }
    updated = std::move(with_role).value();
  }
  if (!confidential.empty()) {
    auto with_role = updated.WithRole(confidential,
                                      AttributeRole::kConfidential);
    if (!with_role.ok()) {
      return Status::InvalidArgument("confidential column '" +
                                     confidential +
                                     "' not found in input; available "
                                     "columns: " +
                                     describe_columns());
    }
    updated = std::move(with_role).value();
  }
  return updated;
}

Status AssignRoles(Dataset* data,
                   const std::vector<std::string>& quasi_identifiers,
                   const std::string& confidential) {
  TCM_ASSIGN_OR_RETURN(
      Schema updated,
      SchemaWithRoles(data->schema(), quasi_identifiers, confidential));
  return data->ReplaceSchema(std::move(updated));
}

Result<PipelineReport> PipelineRunner::Run(const PipelineSpec& spec) {
  if (spec.input_path.empty()) {
    return Status::InvalidArgument(
        "spec.input_path is empty; use Run(data, spec) for in-memory data");
  }
  WallTimer total;
  WallTimer timer;
  Dataset data;
  {
    TraceSpan span("load");
    TCM_ASSIGN_OR_RETURN(data, ReadNumericCsv(spec.input_path));
    TCM_RETURN_IF_ERROR(
        AssignRoles(&data, spec.quasi_identifiers, spec.confidential));
  }
  double load_seconds = timer.ElapsedSeconds();
  // Roles are assigned; clear the name lists so the in-memory stage does
  // not copy the dataset just to re-assign them.
  PipelineSpec staged_spec = spec;
  staged_spec.quasi_identifiers.clear();
  staged_spec.confidential.clear();
  TCM_ASSIGN_OR_RETURN(PipelineReport report, Run(data, staged_spec));
  report.load_seconds = load_seconds;
  report.total_seconds = total.ElapsedSeconds();
  return report;
}

Result<PipelineReport> PipelineRunner::Run(const Dataset& data,
                                           const PipelineSpec& spec) {
  WallTimer total;
  PipelineReport report;
  report.threads = pool_.num_threads();

  // Load stage, reduced to role assignment for in-memory data.
  WallTimer timer;
  Dataset staged;
  const Dataset* input = &data;
  if (!spec.quasi_identifiers.empty() || !spec.confidential.empty()) {
    TraceSpan span("load");
    staged = data;
    TCM_RETURN_IF_ERROR(
        AssignRoles(&staged, spec.quasi_identifiers, spec.confidential));
    input = &staged;
  }
  report.load_seconds = timer.ElapsedSeconds();

  // Shard + anonymize stages.
  timer.Restart();
  ShardedAnonymizeOptions options;
  options.algorithm = spec.algorithm;
  options.params.k = spec.k;
  options.params.t = spec.t;
  options.params.seed = spec.seed;
  options.shard_size = spec.shard_size;
  options.merge_strategy = spec.merge_strategy;
  ShardedAnonymizeStats stats;
  TCM_ASSIGN_OR_RETURN(report.result,
                       ShardedAnonymize(*input, options, &pool_, &stats));
  report.num_shards = stats.num_shards;
  report.final_merges = stats.final_merges;
  report.anonymize_seconds = timer.ElapsedSeconds();
  report.shard_seconds = stats.shard_seconds;
  report.shard_anonymize_seconds = stats.anonymize_seconds;
  report.merge_seconds = stats.merge_seconds;
  report.metrics_seconds = stats.measure_seconds;
  report.merge_subtrees = stats.merge_subtrees;
  report.subtree_merges = stats.subtree_merges;
  report.tail_merges = stats.tail_merges;
  report.candidate_checks = stats.candidate_checks;
  report.pruned_checks = stats.pruned_checks;
  report.exact_checks = stats.exact_checks;

  // Verify stage: independent re-check of both guarantees, the way an
  // auditor (not the algorithm) would.
  if (spec.verify) {
    TraceSpan span("verify");
    timer.Restart();
    TCM_ASSIGN_OR_RETURN(
        ReleaseVerification verification,
        CheckRelease(report.result.anonymized, spec.k, spec.t));
    report.verify_seconds = timer.ElapsedSeconds();
    report.k_verified = verification.k_anonymous;
    report.t_verified = verification.t_close;
    if (!verification.ok()) return PrivacyViolationError(verification);
  }

  // Write stage.
  if (!spec.output_path.empty()) {
    TraceSpan span("write");
    timer.Restart();
    TCM_RETURN_IF_ERROR(
        WriteCsv(report.result.anonymized, spec.output_path, &pool_));
    report.write_seconds = timer.ElapsedSeconds();
  }
  report.total_seconds = total.ElapsedSeconds();
  return report;
}

}  // namespace tcm
