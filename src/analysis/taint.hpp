// Secret-taint lattice for the plan-level dataflow pass.
//
// The evaluator's threat model marks the *input tensor* secret (the
// user's image/sequence is what the paper's adversary reconstructs from
// HPC traces).  Taint flows forward through the layer graph according to
// each layer's TaintTransfer; a leaky kernel only produces an exploitable
// finding when the activations reaching it are still secret-dependent.
#pragma once

#include <cstdint>
#include <string>

#include "nn/leakage_contract.hpp"

namespace sce::analysis {

/// Two-point lattice: kClean ⊑ kSecret.
enum class Taint : std::uint8_t { kClean = 0, kSecret = 1 };

std::string to_string(Taint taint);

/// Lattice join (least upper bound) — for graphs where several edges
/// meet; a Sequential chain only ever joins a value with itself.
inline Taint join(Taint a, Taint b) { return a < b ? b : a; }

/// Output taint of a layer given its input taint and derived transfer.
/// kSanitize clears taint (output independent of input values); the
/// worst-case contract of a layer with no symbolic model propagates.
Taint propagate(Taint input, const nn::LeakageContract& contract);

}  // namespace sce::analysis
