// Static leakage linter CLI: a thin front end over analysis::lint()
// (src/analysis/lint.hpp) — the same library gate the evaluation
// service runs at admission.  The CLI only parses flags, renders the
// report and maps the LintReport onto exit codes.
//
// Exit codes: 0 clean, 1 lint gate failed (--fail-on threshold reached,
// layer without a symbolic model with --fail-on-undeclared, or --cross-check
// disagreement), 2 usage error.
#include <cstdio>
#include <fstream>

#include "analysis/lint.hpp"
#include "analysis/report.hpp"
#include "analysis/sarif.hpp"
#include "nn/kernels/registry.hpp"
#include "nn/zoo.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

using namespace sce;

namespace {

struct ModelSpec {
  nn::Sequential model;
  std::vector<std::size_t> input_shape;
};

ModelSpec build_model(const std::string& name) {
  // Lint inspects architecture, not weights, so the zoo models are built
  // untrained; a seeded He-init keeps any dynamic cross-check kernels
  // numerically ordinary.
  ModelSpec spec;
  if (name == "mnist") {
    spec.model = nn::build_mnist_cnn();
    spec.input_shape = {1, 28, 28};
  } else if (name == "cifar") {
    spec.model = nn::build_cifar_cnn();
    spec.input_shape = {3, 32, 32};
  } else if (name == "sequence") {
    spec.model = nn::build_sequence_rnn();
    spec.input_shape = {1, 16, 8};
  } else {
    throw InvalidArgument("unknown --model '" + name +
                          "' (expected mnist|cifar|sequence)");
  }
  util::Rng rng(7);
  spec.model.initialize(rng);
  return spec;
}

nn::KernelMode parse_mode(const std::string& name) {
  if (name == "data-dependent") return nn::KernelMode::kDataDependent;
  if (name == "constant-flow") return nn::KernelMode::kConstantFlow;
  throw InvalidArgument("unknown --mode '" + name +
                        "' (expected data-dependent|constant-flow)");
}

nn::ExecutionPath parse_path(const std::string& name) {
  if (name == "instrumented") return nn::ExecutionPath::kInstrumented;
  if (name == "fast") return nn::ExecutionPath::kFast;
  throw InvalidArgument("unknown --path '" + name +
                        "' (expected instrumented|fast)");
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli;
  cli.add_option("model", "zoo model to lint: mnist|cifar|sequence", "mnist");
  cli.add_option("mode", "kernel mode: data-dependent|constant-flow",
                 "data-dependent");
  cli.add_option("path",
                 "execution path whose contracts to lint: instrumented|fast "
                 "(fast contracts are verified symbolically against their "
                 "instrumented anchors)",
                 "instrumented");
  cli.add_option("fail-on",
                 "exit non-zero when the model verdict reaches this level: "
                 "none|constant_flow|leaks_control_flow|leaks_addresses",
                 "none");
  cli.add_option("json", "write the JSON lint report to this path", "");
  cli.add_option("sarif",
                 "write a SARIF 2.1.0 report (one result per finding, with "
                 "kernel witness locations) to this path",
                 "");
  cli.add_flag("fail-on-undeclared",
               "also fail when any layer has no symbolic kernel model to "
               "derive its leakage contract from");
  cli.add_flag("fail-on-unverified",
               "also fail when any contract is neither oracle-verifiable "
               "nor symbolically verified");
  cli.add_flag("cross-check",
               "validate derived contracts against the uarch trace oracle");
  cli.add_flag("list-kernels",
               "print the kernel registry (op x mode x path) and exit");
  cli.add_flag("quiet", "suppress the text report");

  try {
    cli.parse(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n%s", e.what(),
                 cli.usage("leakage_lint").c_str());
    return 2;
  }

  try {
    if (cli.get_flag("list-kernels")) {
      std::printf("%-14s %-15s %-13s %s\n", "op", "mode", "path", "impl");
      for (const nn::kernels::KernelEntry& e : nn::kernels::all_kernels())
        std::printf("%-14s %-15s %-13s %s\n", e.op,
                    nn::to_string(e.mode).c_str(),
                    nn::to_string(e.path).c_str(), e.impl);
      return 0;
    }

    const ModelSpec spec = build_model(cli.get("model"));

    analysis::LintOptions options;
    options.mode = parse_mode(cli.get("mode"));
    options.path = parse_path(cli.get("path"));
    options.model_name = cli.get("model");
    options.fail_on_undeclared = cli.get_flag("fail-on-undeclared");
    options.fail_on_unverified = cli.get_flag("fail-on-unverified");
    options.cross_check = cli.get_flag("cross-check");
    const std::string fail_on = cli.get("fail-on");
    if (fail_on != "none") {
      options.fail_on = analysis::parse_verdict(fail_on);
      if (!options.fail_on)
        throw InvalidArgument("unknown --fail-on '" + fail_on + "'");
    }

    const analysis::LintReport report =
        analysis::lint(spec.model, spec.input_shape, options);

    if (!cli.get_flag("quiet"))
      std::fputs(analysis::render_text(report.analysis).c_str(), stdout);

    const std::string json_path = cli.get("json");
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      if (!out) throw IoError("cannot write " + json_path);
      out << analysis::render_json(report.analysis) << "\n";
    }

    const std::string sarif_path = cli.get("sarif");
    if (!sarif_path.empty()) {
      std::ofstream out(sarif_path);
      if (!out) throw IoError("cannot write " + sarif_path);
      out << analysis::render_sarif(report) << "\n";
    }

    if (report.cross_checked) {
      if (report.mismatches.empty()) {
        if (!cli.get_flag("quiet"))
          std::printf("cross-check: static verdicts agree with the uarch "
                      "trace oracle (%zu layers)\n",
                      spec.model.layer_count());
      } else {
        for (const auto& m : report.mismatches)
          std::fprintf(stderr, "cross-check: #%zu %s: %s\n", m.layer_index,
                       m.layer_name.c_str(), m.detail.c_str());
      }
    }

    if (!report.passed) {
      std::fprintf(stderr, "leakage_lint: FAIL — %s\n",
                   report.failure.c_str());
      return 1;
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "leakage_lint: %s\n", e.what());
    return 2;
  }
}
