#include "analysis/taint.hpp"

namespace sce::analysis {

std::string to_string(Taint taint) {
  return taint == Taint::kSecret ? "secret" : "clean";
}

Taint propagate(Taint input, const nn::LeakageContract& contract) {
  if (contract.taint == nn::TaintTransfer::kSanitize)
    return Taint::kClean;
  return input;
}

}  // namespace sce::analysis
