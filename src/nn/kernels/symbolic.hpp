// Symbolic kernel analysis: the abstract domain every kernel can run
// over, and the entry points that run each registered kernel through it.
//
// Values carry only a secrecy taint; loop trip counts stay concrete
// (shapes come from the InferencePlan's shape inference), so one run
// covers every input of that shape, and the engine behind the executor
// (src/analysis/symexec) decides which trace aspects *can* vary with the
// secret input.  The derived LeakageContract is the layer's contract: a
// kernel edit changes it, and the dynamic trace oracle checks it.
//
// Two sources, one per execution path:
//  * Instrumented: the kernels themselves.  Each *_instrumented.cpp
//    template runs over SymbolicDomain (domain.hpp), so the analysis sees
//    the shipped loop nest, event for event, and the dynamic trace oracle
//    checks the same code end to end.
//  * Fast: hand-written models in symbolic_models.cpp that mirror the
//    source structure of the SIMD code (a lane blend is branchless; a
//    scalar row-skip is a real branch; a source loop inside a skipped
//    region counts as structural branches even if the compiler unrolls
//    it — conservative in the direction that never hides a leak).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "nn/kernels/conv2d.hpp"
#include "nn/kernels/dense.hpp"
#include "nn/kernels/execution_path.hpp"
#include "nn/kernels/pooling.hpp"
#include "nn/kernels/rnn.hpp"

namespace sce::nn {
enum class KernelMode;
enum class ConvAlgorithm;
}

namespace sce::nn::kernels {

/// Two-point secrecy lattice: the abstract "value" of the symbolic
/// domain.  kSecret marks data derived from the model input; parameters
/// (weights, biases) and constants are kPublic.
enum class SymTaint : std::uint8_t { kPublic = 0, kSecret = 1 };

inline SymTaint join(SymTaint a, SymTaint b) {
  return (a == SymTaint::kSecret || b == SymTaint::kSecret)
             ? SymTaint::kSecret
             : SymTaint::kPublic;
}

/// A symbolic scalar: no magnitude, only provenance.
struct SymValue {
  SymTaint taint = SymTaint::kPublic;
  bool secret() const { return taint == SymTaint::kSecret; }
};

inline SymValue join(SymValue a, SymValue b) {
  return SymValue{join(a.taint, b.taint)};
}
inline SymValue join(SymValue a, SymValue b, SymValue c) {
  return join(join(a, b), c);
}

/// Arithmetic in the symbolic domain: a result is as secret as any of
/// its operands.
inline SymValue operator+(SymValue a, SymValue b) { return join(a, b); }
inline SymValue operator-(SymValue a, SymValue b) { return join(a, b); }
inline SymValue operator*(SymValue a, SymValue b) { return join(a, b); }
inline SymValue operator/(SymValue a, SymValue b) { return join(a, b); }

/// Engine-issued handle to a symbolic tensor (per-element taints).
struct SymBuffer {
  std::size_t id = 0;
};

/// Source location of a leak-relevant construct: a branch site of an
/// instrumented kernel, or of a fast-path model.  The label names the
/// construct (e.g. "dense row-skip (x[i]==0)") so a witness stays
/// readable when lines move.
struct SymSite {
  const char* file = "";
  int line = 0;
  const char* label = "";
};

#define SCE_SYM_SITE(label) \
  (::sce::nn::kernels::SymSite{__FILE__, __LINE__, (label)})

/// The abstract machine a symbolic kernel runs against.  Mirrors
/// the TraceSink event vocabulary (load/store/branch/retire/structural)
/// plus the control construct the sink cannot express: a region whose
/// *execution* depends on a predicate (`if_else`), which is what turns
/// value taint into count/address variance.
///
/// Contract for kernel and model authors:
///  * Use `load`/`store` for accesses the real kernel performs (traced
///    or machine-level), `value`/`assign` for taint bookkeeping with no
///    memory traffic (views, register copies).
///  * Use plain C++ control flow for public predicates (loop bounds,
///    padding tests) and `branch`/`if_else` for data predicates.
///  * Arm thunks must only move engine state upward (accumulate via
///    join) — both arms are executed abstractly.
class SymbolicExecutor {
 public:
  virtual ~SymbolicExecutor() = default;

  /// The kernel's (secret) input activations.
  virtual SymBuffer input_buffer() = 0;
  /// A (public) parameter tensor: weights, biases.
  virtual SymBuffer param_buffer(const char* name, std::size_t numel) = 0;
  /// The kernel's output activations; its final taint decides the
  /// derived TaintTransfer.
  virtual SymBuffer output_buffer(std::size_t numel) = 0;
  /// Workspace scratch (im2col patches, RNN accumulator).
  virtual SymBuffer scratch_buffer(const char* name, std::size_t numel) = 0;

  /// A memory read/write the kernel performs, at a public (loop-derived)
  /// element index.
  virtual SymValue load(SymBuffer buffer, std::size_t index) = 0;
  virtual void store(SymBuffer buffer, std::size_t index, SymValue v) = 0;
  /// A read whose *address* is itself data-derived (table lookup keyed
  /// on an activation): leaks through the address stream no matter what
  /// the control flow does.
  virtual SymValue load_indexed(const SymSite& site, SymBuffer buffer,
                                SymValue index) = 0;
  /// Taint bookkeeping without memory traffic.
  virtual SymValue value(SymBuffer buffer, std::size_t index) = 0;
  virtual void assign(SymBuffer buffer, std::size_t index, SymValue v) = 0;

  /// Instruction-count and loop-back-edge bookkeeping (the sink's
  /// retire/structural_branches).
  virtual void retire(std::uint64_t instructions) = 0;
  virtual void structural_branches(std::uint64_t count) = 0;

  /// An emitted conditional branch that does NOT guard any events (the
  /// ReLU sign test: both continuations do identical work).
  virtual void branch(const SymSite& site, SymValue predicate) = 0;
  /// A conditional branch guarding divergent work.  Executes both arms
  /// abstractly and diffs their event streams: arms that differ in
  /// memory / branch / retire events make the corresponding aspect
  /// input-dependent when `predicate` is secret.
  virtual void if_else(const SymSite& site, SymValue predicate,
                       const std::function<void()>& then_arm,
                       const std::function<void()>& else_arm) = 0;

  /// The kernel draws inference-time randomness (a masking
  /// countermeasure would; none of the stock kernels do).
  virtual SymValue rng_draw(const SymSite& site) = 0;

  /// Called by Layer::symbolic_forward's base default: this layer has no
  /// symbolic model, so nothing can be derived for it.
  virtual void unmodeled() = 0;
};

/// Symbolic derivation, one entry per registered op, covering both modes
/// and both paths: kInstrumented runs the instrumented kernel itself
/// (declared below), kFast the hand-written model of the SIMD kernel.
/// Implemented in symbolic_models.cpp.
void conv2d_symbolic(const Conv2DGeom& g, ConvAlgorithm algorithm,
                     SymbolicExecutor& exec, KernelMode mode,
                     ExecutionPath path);
void dense_symbolic(const DenseGeom& g, SymbolicExecutor& exec,
                    KernelMode mode, ExecutionPath path);
void relu_symbolic(std::size_t n, SymbolicExecutor& exec, KernelMode mode,
                   ExecutionPath path);
void maxpool2d_symbolic(const Pool2DGeom& g, SymbolicExecutor& exec,
                        KernelMode mode, ExecutionPath path);
void avgpool2d_symbolic(const Pool2DGeom& g, SymbolicExecutor& exec,
                        ExecutionPath path);
void softmax_symbolic(std::size_t n, SymbolicExecutor& exec,
                      ExecutionPath path);
void rnn_symbolic(const RnnGeom& g, SymbolicExecutor& exec, KernelMode mode,
                  ExecutionPath path);

/// The instrumented kernels instantiated over SymbolicDomain; each is
/// defined next to its concrete instantiations in *_instrumented.cpp.
void conv2d_direct_instrumented(const Conv2DGeom& g, SymbolicExecutor& exec,
                                KernelMode mode);
void conv2d_im2col_instrumented(const Conv2DGeom& g, SymbolicExecutor& exec,
                                KernelMode mode);
void dense_instrumented(const DenseGeom& g, SymbolicExecutor& exec,
                        KernelMode mode);
void relu_instrumented(std::size_t n, SymbolicExecutor& exec,
                       KernelMode mode);
void maxpool2d_instrumented(const Pool2DGeom& g, SymbolicExecutor& exec,
                            KernelMode mode);
void avgpool2d_instrumented(const Pool2DGeom& g, SymbolicExecutor& exec);
void softmax_instrumented(std::size_t n, SymbolicExecutor& exec);
void rnn_instrumented(const RnnGeom& g, SymbolicExecutor& exec,
                      KernelMode mode);

/// Registry of modeled (op, mode, path) cells, self-registered by
/// symbolic_models.cpp the way kernel TUs register KernelEntries.  The
/// completeness test walks kernels::all_kernels() and requires
/// has_symbolic_model for every cell, so a new kernel cannot land
/// unanalyzed.
struct SymbolicModelEntry {
  const char* op;
  KernelMode mode;
  ExecutionPath path;
};

bool has_symbolic_model(const std::string& op, KernelMode mode,
                        ExecutionPath path);

/// Every modeled cell, sorted by (op, mode, path).
std::vector<SymbolicModelEntry> all_symbolic_models();

namespace detail {
struct SymbolicModelRegistration {
  explicit SymbolicModelRegistration(
      std::initializer_list<SymbolicModelEntry> entries);
};
}  // namespace detail

}  // namespace sce::nn::kernels
