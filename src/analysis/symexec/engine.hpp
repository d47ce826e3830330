// SymbolicEngine: the abstract interpreter behind the symbolic kernel
// models (nn/kernels/symbolic.hpp).
//
// Domain: per-buffer, per-element secrecy taint (two-point lattice) with
// concrete loop trip counts — the affine index structure of the kernels
// is replayed literally, so every address a model touches is a concrete
// index into a symbolic buffer.  Control flow over secret data is the
// one construct the domain must interpret rather than replay: `if_else`
// runs both arms, captures each arm's event stream (memory accesses,
// branch/structural events, retired instructions), and diffs them.  An
// aspect whose streams differ between the arms of a secret-predicate
// branch *can* vary with the input — that is precisely the corresponding
// LeakageContract claim, each backed by a witness naming the model site.
//
// Soundness: arms are executed unconditionally and stores under a guard
// are weak updates joined with the guard taint (classic implicit-flow
// handling), so derived flags over-approximate any single concrete run.
// Precision: against this repo's kernels the derivation is exact — the
// cross-validation tests require derived == oracle-observed for every zoo
// cell.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/kernels/symbolic.hpp"
#include "nn/leakage_contract.hpp"

namespace sce::nn {
class Layer;
}

namespace sce::analysis::symexec {

/// Where a derived leak claim comes from: the branch site (file/line in
/// the instrumented kernel's own source, or in a fast-path model of
/// symbolic_models.cpp; label naming the construct) plus what the engine
/// saw there.
struct Witness {
  /// "branch-outcomes" | "branch-count" | "address-stream" |
  /// "instruction-count" | "rng".
  std::string aspect;
  std::string file;
  int line = 0;
  std::string label;
  std::string detail;
};

/// The result of symbolically executing one layer's kernel model.
struct DerivedContract {
  /// The contract the *code* makes: variance flags from arm diffing,
  /// consumes_rng from rng_draw, taint from the output buffer's final
  /// secrecy, shape_scales_trace from a second run one step longer (see
  /// derive_layer_contract).  LeakageContract::undeclared() when the
  /// layer has no symbolic model.
  nn::LeakageContract contract;
  /// First witness per derived aspect, in discovery order.
  std::vector<Witness> witnesses;
};

class SymbolicEngine final : public nn::kernels::SymbolicExecutor {
 public:
  explicit SymbolicEngine(std::size_t input_numel);

  nn::kernels::SymBuffer input_buffer() override;
  nn::kernels::SymBuffer param_buffer(const char* name,
                                      std::size_t numel) override;
  nn::kernels::SymBuffer output_buffer(std::size_t numel) override;
  nn::kernels::SymBuffer scratch_buffer(const char* name,
                                        std::size_t numel) override;

  nn::kernels::SymValue load(nn::kernels::SymBuffer buffer,
                             std::size_t index) override;
  void store(nn::kernels::SymBuffer buffer, std::size_t index,
             nn::kernels::SymValue v) override;
  nn::kernels::SymValue load_indexed(const nn::kernels::SymSite& site,
                                     nn::kernels::SymBuffer buffer,
                                     nn::kernels::SymValue index) override;
  nn::kernels::SymValue value(nn::kernels::SymBuffer buffer,
                              std::size_t index) override;
  void assign(nn::kernels::SymBuffer buffer, std::size_t index,
              nn::kernels::SymValue v) override;

  void retire(std::uint64_t instructions) override;
  void structural_branches(std::uint64_t count) override;

  void branch(const nn::kernels::SymSite& site,
              nn::kernels::SymValue predicate) override;
  void if_else(const nn::kernels::SymSite& site,
               nn::kernels::SymValue predicate,
               const std::function<void()>& then_arm,
               const std::function<void()>& else_arm) override;

  nn::kernels::SymValue rng_draw(const nn::kernels::SymSite& site) override;
  void unmodeled() override;

  /// Fold the accumulated facts into a DerivedContract stamped with
  /// `path`.  Call once, after the model returned.
  DerivedContract finish(nn::ExecutionPath path) const;

  /// Total instructions retired and structural branches reported, over
  /// both arms of every if_else: the trace volume two runs of one model
  /// at different input shapes are compared by.
  std::uint64_t retired() const { return retired_; }
  std::uint64_t structural() const { return structural_; }

 private:
  /// One memory access: (buffer, element, is_store).  SIZE_MAX as the
  /// element marks a data-derived address (load_indexed).
  struct MemEvent {
    std::size_t buffer = 0;
    std::size_t index = 0;
    bool is_store = false;
    bool operator==(const MemEvent&) const = default;
  };

  /// Event stream of one if_else arm, for diffing against its sibling.
  struct Frame {
    std::vector<MemEvent> memory;
    std::uint64_t branch_events = 0;
    std::uint64_t structural = 0;
    std::uint64_t retired = 0;
  };

  nn::kernels::SymBuffer make_buffer(std::size_t numel,
                                     nn::kernels::SymTaint taint);
  nn::kernels::SymValue guard_taint() const;
  void record_memory(MemEvent event);
  void note(const char* aspect, const nn::kernels::SymSite& site,
            std::string detail);

  std::vector<std::vector<nn::kernels::SymValue>> buffers_;
  std::size_t input_numel_ = 0;
  std::size_t output_id_ = SIZE_MAX;
  std::vector<nn::kernels::SymValue> guards_;
  std::vector<Frame> frames_;

  bool branch_outcomes_ = false;
  bool branch_count_ = false;
  bool address_stream_ = false;
  bool instruction_count_ = false;
  bool rng_ = false;
  bool unmodeled_ = false;
  std::uint64_t retired_ = 0;
  std::uint64_t structural_ = 0;
  std::vector<Witness> witnesses_;
};

/// Run `layer`'s symbolic model for inputs of `input_shape` under
/// (mode, path) and return what the code itself claims.  Never throws on
/// an unmodeled layer — that comes back as LeakageContract::undeclared().
///
/// shape_scales_trace: the model runs again on an input one step longer
/// along the first dimension whose growth output_shape accepts without
/// changing the output shape (an RNN's timestep axis); the flag is set
/// when the retired or structural totals of the two runs differ.  A
/// layer with no such dimension (every shape change either throws or
/// reshapes its output) does not scale.
DerivedContract derive_layer_contract(
    const nn::Layer& layer, const std::vector<std::size_t>& input_shape,
    nn::KernelMode mode, nn::ExecutionPath path);

}  // namespace sce::analysis::symexec
