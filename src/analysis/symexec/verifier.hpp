// Fast-path contract verification by refinement.
//
// The engine (engine.hpp) derives each layer's contract from its kernel
// code.  The dynamic trace oracle can check the instrumented contract,
// but the fast path emits no trace.  This module establishes the
// refinement link that substitutes for one:
//
//   derived(fast) refines derived(instrumented)  (fast leaks no more)
//   derived(instrumented) is oracle-validated
//
// A fast contract for which the link holds is "symbolically verified",
// which closes the oracle-unverified gap that `leakage_lint --path fast`
// would otherwise report.
#pragma once

#include <string>
#include <vector>

#include "analysis/symexec/engine.hpp"

namespace sce::analysis {

/// Version tag of the static analyzer + symbolic verifier.  Folded into
/// the service's ResultCache key: a cached verdict is only as good as
/// the analyzer that produced it, so an analyzer change must miss.
/// Bump on any change to derivation rules, symbolic models, report
/// format or lint gating semantics.
const std::string& analyzer_version();

namespace symexec {

/// True when `a` leaks no aspect that `b` does not also leak (a's
/// variance + RNG flags are pointwise <= b's).
bool refines(const nn::LeakageContract& a, const nn::LeakageContract& b);

/// One layer's verification result for one (mode, path).
struct LayerVerification {
  /// What the code says, for the requested (mode, path).  On the fast
  /// path, `derived.contract.symbolically_verified` records whether the
  /// refinement link holds; it is never set on the instrumented path,
  /// where the oracle itself is the authority.
  DerivedContract derived;
  /// Why a fast contract is not symbolically verified ("" otherwise).
  std::string detail;
};

/// Derive one layer's contract and, on the fast path, check that it
/// refines the derived instrumented contract.
LayerVerification verify_layer(const nn::Layer& layer,
                               const std::vector<std::size_t>& input_shape,
                               nn::KernelMode mode, nn::ExecutionPath path);

}  // namespace symexec
}  // namespace sce::analysis
