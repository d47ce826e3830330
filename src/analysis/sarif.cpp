#include "analysis/sarif.hpp"

#include "analysis/report.hpp"
#include "analysis/symexec/verifier.hpp"
#include "util/json.hpp"

namespace sce::analysis {

namespace {

const char* severity_level(Severity severity) {
  switch (severity) {
    case Severity::kInfo:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "warning";
}

/// Emit one SARIF result.  `witness` may be null (logical location only).
void append_result(util::JsonWriter& json, const char* rule_id,
                   const char* level, const std::string& message,
                   const LayerFinding* finding,
                   const symexec::Witness* witness) {
  json.begin_object();
  json.key("ruleId").value(rule_id);
  json.key("level").value(level);
  json.key("message").begin_object();
  json.key("text").value(message);
  json.end_object();
  json.key("locations").begin_array();
  json.begin_object();
  if (witness != nullptr && !witness->file.empty()) {
    json.key("physicalLocation").begin_object();
    json.key("artifactLocation").begin_object();
    // Repo-relative, so viewers can resolve it against a checkout.
    json.key("uri").value(repo_relative(witness->file));
    json.end_object();
    json.key("region").begin_object();
    json.key("startLine").value(static_cast<std::int64_t>(
        witness->line > 0 ? witness->line : 1));
    json.end_object();
    json.end_object();
  }
  if (finding != nullptr) {
    json.key("logicalLocations").begin_array();
    json.begin_object();
    json.key("name").value(finding->layer_name);
    json.key("fullyQualifiedName")
        .value("layer #" + std::to_string(finding->index) + " (" +
               finding->layer_name + ")");
    json.key("kind").value("member");
    json.end_object();
    json.end_array();
  }
  json.end_object();
  json.end_array();
  json.end_object();
}

const symexec::Witness* first_witness(const LayerFinding& finding,
                                      const char* aspect) {
  for (const symexec::Witness& w : finding.witnesses) {
    if (w.aspect == aspect) return &w;
  }
  return finding.witnesses.empty() ? nullptr : &finding.witnesses.front();
}

struct Rule {
  const char* id;
  const char* description;
};

constexpr Rule kRules[] = {
    {"exploitable-leak",
     "A kernel's trace varies with secret-tainted input (derived from the "
     "kernel code)"},
    {"undeclared-contract",
     "A layer has no symbolic kernel model to derive its leakage contract "
     "from; the analyzer assumes the worst case"},
    {"unverified-contract",
     "A fast-path contract is neither oracle-verifiable nor symbolically "
     "verified"},
    {"oracle-mismatch",
     "The dynamic trace oracle observed behaviour the derived contract "
     "does not predict"},
};

}  // namespace

std::string render_sarif(const LintReport& report) {
  const AnalysisReport& analysis = report.analysis;
  util::JsonWriter json;
  json.begin_object();
  json.key("$schema")
      .value("https://json.schemastore.org/sarif-2.1.0.json");
  json.key("version").value("2.1.0");
  json.key("runs").begin_array();
  json.begin_object();

  json.key("tool").begin_object();
  json.key("driver").begin_object();
  json.key("name").value("leakage_lint");
  json.key("version").value(analyzer_version());
  json.key("rules").begin_array();
  for (const Rule& rule : kRules) {
    json.begin_object();
    json.key("id").value(rule.id);
    json.key("shortDescription").begin_object();
    json.key("text").value(rule.description);
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json.end_object();

  json.key("properties").begin_object();
  json.key("model").value(analysis.model_name);
  json.key("mode").value(nn::to_string(analysis.mode));
  json.key("path").value(nn::to_string(analysis.path));
  json.key("passed").value(report.passed);
  if (!report.passed) json.key("failure").value(report.failure);
  json.end_object();

  json.key("results").begin_array();
  for (const LayerFinding& f : analysis.findings) {
    const std::string where =
        "layer #" + std::to_string(f.index) + " (" + f.layer_name + "): ";
    if (f.exploitable) {
      append_result(
          json, "exploitable-leak", severity_level(f.severity),
          where + f.detail, &f,
          first_witness(f, f.contract.address_stream_varies
                               ? "address-stream"
                               : "branch-outcomes"));
    }
    if (!f.contract.declared) {
      append_result(json, "undeclared-contract", "error",
                    where + "no symbolic kernel model to derive a leakage "
                            "contract from",
                    &f, nullptr);
    }
    if (!f.contract.verified()) {
      append_result(json, "unverified-contract", "warning",
                    where + "contract is neither oracle-verifiable nor "
                            "symbolically verified",
                    &f, nullptr);
    }
  }
  for (const OracleMismatch& m : report.mismatches) {
    append_result(json, "oracle-mismatch", "error",
                  "layer #" + std::to_string(m.layer_index) + " (" +
                      m.layer_name + "): " + m.detail,
                  nullptr, nullptr);
  }
  json.end_array();

  json.end_object();
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace sce::analysis
