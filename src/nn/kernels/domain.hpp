// Execution domains of the instrumented kernels.
//
// Each instrumented kernel in *_instrumented.cpp is one function
// template over a domain `D`, instantiated for two kinds of domain:
//
//  * ConcreteDomain<Sink> computes on floats and reports every event to
//    a sink.  The kernel's one entry point, `*_instrumented(shape,
//    TraceSink&, mode)`, picks the sink type once per call through
//    with_static_sink(): DiscardSink when the sink discards (every trace
//    call compiles away), the SimulatorSink when the sink is the live
//    simulator (its hit paths inline into the loop), and TraceSink, one
//    virtual call per event, for every other sink.
//  * SymbolicDomain runs the same loop nest over SymValue taints against
//    a SymbolicExecutor, which derives the kernel's leakage contract from
//    it.  A kernel edit therefore changes what is analyzed, and every
//    witness cites the kernel's own source lines.
//
// The kernel-side vocabulary, and what each domain does with it:
//
//   load(b, i)            traced read       a[i] + sink.load / exec.load
//   value(b, i)           untraced read     a[i]             / exec.value
//   store(b, i, v)        traced write      a[i]=v + sink.store / exec.store
//   retire(n), structural_branches(n)       forwarded to sink / executor
//   branch(site, p)       branch whose arms do identical work:
//                                           sink.branch      / exec.branch
//   guarded(site, p, then_arm, else_arm)
//                         branch guarding divergent work:
//                         sink.branch, then one arm          / exec.if_else
//   is_zero, is_negative, greater, select, exp, constant
//                         value operations: float semantics / taint join
//
// Loop bounds and padding tests are public (shape-derived) and stay plain
// C++ control flow.  Arithmetic on SymValue joins taints (symbolic.hpp).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "nn/kernels/symbolic.hpp"
#include "uarch/simulator_sink.hpp"
#include "uarch/trace.hpp"

namespace sce::nn::kernels {

/// A data-dependent branch site: the source location plus label the
/// symbolic domain cites in witnesses, and the pseudo-PC the concrete
/// domain reports to branch predictors, which is the site's own address.
/// Define sites as namespace-scope constants, not inside a kernel
/// template: there every instantiation would get its own anchor, and the
/// SimulatorSink and TraceSink instantiations would report different pcs
/// for one branch, so a live measurement and the replay of its recorded
/// trace would count different branch-misses.
struct KernelSite {
  SymSite sym;

  std::uintptr_t pc() const { return reinterpret_cast<std::uintptr_t>(this); }
};

/// Names a kernel branch site once, for both domains:
///   constexpr KernelSite kSite = SCE_KERNEL_SITE("label");
#define SCE_KERNEL_SITE(label) \
  (::sce::nn::kernels::KernelSite{SCE_SYM_SITE(label)})

/// Calls `kernel(s)` with `s` the most specific sink `sink` allows: a
/// DiscardSink when it discards every event, the SimulatorSink when it is
/// one, else `sink` itself.  Asked once per kernel call, never per event,
/// so each kernel has exactly these three concrete instantiations.
template <typename Kernel>
void with_static_sink(uarch::TraceSink& sink, Kernel&& kernel) {
  if (sink.discards()) {
    uarch::DiscardSink discard;
    kernel(discard);
  } else if (uarch::SimulatorSink* simulator = sink.simulator()) {
    kernel(*simulator);
  } else {
    kernel(sink);
  }
}

/// Floats plus a sink.  No allocation, no virtual call beyond the sink's
/// own, and arms are inlined callables: the instantiation over a given
/// sink emits exactly the events of a hand-written loop over that sink.
/// Over a SimulatorSink, whose event methods are final, there is no
/// virtual call at all.
template <typename Sink>
class ConcreteDomain {
 public:
  using Value = float;

  explicit ConcreteDomain(Sink& sink) : sink_(sink) {}

  float load(const float* buffer, std::size_t i) {
    const float v = buffer[i];
    sink_.load(&buffer[i], sizeof(float));
    return v;
  }
  float value(const float* buffer, std::size_t i) const { return buffer[i]; }
  void store(float* buffer, std::size_t i, float v) {
    buffer[i] = v;
    sink_.store(&buffer[i], sizeof(float));
  }
  void retire(std::uint64_t n) { sink_.retire(n); }
  void structural_branches(std::uint64_t n) { sink_.structural_branches(n); }

  void branch(const KernelSite& site, bool taken) {
    sink_.branch(site.pc(), taken);
  }
  template <typename Then, typename Else>
  void guarded(const KernelSite& site, bool taken, Then&& then_arm,
               Else&& else_arm) {
    sink_.branch(site.pc(), taken);
    // A block-layout choice, not a probability: with the work arm on
    // the fall-through path, as in a hand-written loop, data-dependent
    // MNIST through a CountingSink ran ~10% faster (GCC, x86-64).  The
    // events are the same either way.
    if (taken) [[unlikely]]
      then_arm();
    else
      else_arm();
  }

  static float constant(float c) { return c; }
  static bool is_zero(float v) { return v == 0.0f; }
  static bool is_negative(float v) { return v < 0.0f; }
  static bool greater(float a, float b) { return a > b; }
  static float select(bool c, float a, float b) { return c ? a : b; }
  static float exp(float v) { return std::exp(v); }

 private:
  Sink& sink_;
};

/// Taints plus a SymbolicExecutor.  Buffers are engine handles; a
/// predicate is the taint of the values it tests.
class SymbolicDomain {
 public:
  using Value = SymValue;

  explicit SymbolicDomain(SymbolicExecutor& exec) : exec_(exec) {}

  SymValue load(SymBuffer buffer, std::size_t i) {
    return exec_.load(buffer, i);
  }
  SymValue value(SymBuffer buffer, std::size_t i) {
    return exec_.value(buffer, i);
  }
  void store(SymBuffer buffer, std::size_t i, SymValue v) {
    exec_.store(buffer, i, v);
  }
  void retire(std::uint64_t n) { exec_.retire(n); }
  void structural_branches(std::uint64_t n) { exec_.structural_branches(n); }

  void branch(const KernelSite& site, SymValue predicate) {
    exec_.branch(site.sym, predicate);
  }
  template <typename Then, typename Else>
  void guarded(const KernelSite& site, SymValue predicate, Then&& then_arm,
               Else&& else_arm) {
    exec_.if_else(site.sym, predicate, then_arm, else_arm);
  }

  static SymValue constant(float) { return SymValue{}; }
  static SymValue is_zero(SymValue v) { return v; }
  static SymValue is_negative(SymValue v) { return v; }
  static SymValue greater(SymValue a, SymValue b) { return join(a, b); }
  static SymValue select(SymValue c, SymValue a, SymValue b) {
    return join(c, a, b);
  }
  static SymValue exp(SymValue v) { return v; }

 private:
  SymbolicExecutor& exec_;
};

}  // namespace sce::nn::kernels
