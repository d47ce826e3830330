#include "analysis/symexec/engine.hpp"

#include <optional>
#include <utility>

#include "nn/layer.hpp"
#include "util/error.hpp"

namespace sce::analysis::symexec {

using nn::kernels::SymBuffer;
using nn::kernels::SymSite;
using nn::kernels::SymTaint;
using nn::kernels::SymValue;

SymbolicEngine::SymbolicEngine(std::size_t input_numel)
    : input_numel_(input_numel) {}

SymBuffer SymbolicEngine::make_buffer(std::size_t numel, SymTaint taint) {
  buffers_.emplace_back(numel, SymValue{taint});
  return SymBuffer{buffers_.size() - 1};
}

SymBuffer SymbolicEngine::input_buffer() {
  return make_buffer(input_numel_, SymTaint::kSecret);
}

SymBuffer SymbolicEngine::param_buffer(const char*, std::size_t numel) {
  return make_buffer(numel, SymTaint::kPublic);
}

SymBuffer SymbolicEngine::output_buffer(std::size_t numel) {
  const SymBuffer buffer = make_buffer(numel, SymTaint::kPublic);
  output_id_ = buffer.id;
  return buffer;
}

SymBuffer SymbolicEngine::scratch_buffer(const char*, std::size_t numel) {
  return make_buffer(numel, SymTaint::kPublic);
}

SymValue SymbolicEngine::guard_taint() const {
  SymValue t;
  for (const SymValue& g : guards_) t = join(t, g);
  return t;
}

void SymbolicEngine::record_memory(MemEvent event) {
  if (!frames_.empty()) frames_.back().memory.push_back(event);
}

SymValue SymbolicEngine::load(SymBuffer buffer, std::size_t index) {
  record_memory({buffer.id, index, false});
  return buffers_[buffer.id][index];
}

void SymbolicEngine::store(SymBuffer buffer, std::size_t index, SymValue v) {
  record_memory({buffer.id, index, true});
  assign(buffer, index, v);
}

SymValue SymbolicEngine::load_indexed(const SymSite& site, SymBuffer buffer,
                                      SymValue index) {
  record_memory({buffer.id, SIZE_MAX, false});
  if (index.secret()) {
    address_stream_ = true;
    note("address-stream", site, "load address is computed from secret data");
  }
  SymValue v = index;
  for (const SymValue& element : buffers_[buffer.id]) v = join(v, element);
  return v;
}

SymValue SymbolicEngine::value(SymBuffer buffer, std::size_t index) {
  return buffers_[buffer.id][index];
}

void SymbolicEngine::assign(SymBuffer buffer, std::size_t index, SymValue v) {
  SymValue& slot = buffers_[buffer.id][index];
  if (guards_.empty()) {
    // Strong update: an unconditional write replaces the element's taint
    // outright — this is what lets a sanitizing layer clear secrecy.
    slot = v;
  } else {
    // Weak update under a guard: the write may or may not happen in a
    // concrete run, so the old taint survives, and the guard predicate
    // flows in (implicit flow: "was written here" reveals the predicate).
    slot = join(join(slot, v), guard_taint());
  }
}

void SymbolicEngine::retire(std::uint64_t instructions) {
  retired_ += instructions;
  if (!frames_.empty()) frames_.back().retired += instructions;
}

void SymbolicEngine::structural_branches(std::uint64_t count) {
  structural_ += count;
  if (!frames_.empty()) frames_.back().structural += count;
}

void SymbolicEngine::branch(const SymSite& site, SymValue predicate) {
  if (!frames_.empty()) frames_.back().branch_events += 1;
  const SymValue p = join(predicate, guard_taint());
  if (p.secret()) {
    branch_outcomes_ = true;
    note("branch-outcomes", site,
         "emitted branch predicate depends on secret data");
  }
}

void SymbolicEngine::if_else(const SymSite& site, SymValue predicate,
                             const std::function<void()>& then_arm,
                             const std::function<void()>& else_arm) {
  const SymValue p = join(predicate, guard_taint());
  if (p.secret()) {
    branch_outcomes_ = true;
    note("branch-outcomes", site,
         "guarding branch predicate depends on secret data");
  }

  guards_.push_back(p);
  frames_.emplace_back();
  then_arm();
  Frame then_frame = std::move(frames_.back());
  frames_.pop_back();
  frames_.emplace_back();
  else_arm();
  Frame else_frame = std::move(frames_.back());
  frames_.pop_back();
  guards_.pop_back();

  if (p.secret()) {
    if (then_frame.memory != else_frame.memory) {
      address_stream_ = true;
      note("address-stream", site,
           "then/else arms touch different memory (" +
               std::to_string(then_frame.memory.size()) + " vs " +
               std::to_string(else_frame.memory.size()) + " accesses)");
    }
    if (then_frame.branch_events != else_frame.branch_events ||
        then_frame.structural != else_frame.structural) {
      branch_count_ = true;
      note("branch-count", site,
           "then/else arms retire different branch totals (" +
               std::to_string(then_frame.branch_events +
                              then_frame.structural) +
               " vs " +
               std::to_string(else_frame.branch_events +
                              else_frame.structural) +
               ")");
    }
    if (then_frame.retired != else_frame.retired) {
      instruction_count_ = true;
      note("instruction-count", site,
           "then/else arms retire different instruction counts (" +
               std::to_string(then_frame.retired) + " vs " +
               std::to_string(else_frame.retired) + ")");
    }
  }

  // Propagate a canonical merge to an enclosing arm so nested secret
  // branches still participate in the parent's diff deterministically.
  if (!frames_.empty()) {
    Frame& parent = frames_.back();
    parent.branch_events += 1 + then_frame.branch_events +
                            else_frame.branch_events;
    parent.structural += then_frame.structural + else_frame.structural;
    parent.retired += then_frame.retired + else_frame.retired;
    parent.memory.insert(parent.memory.end(), then_frame.memory.begin(),
                         then_frame.memory.end());
    parent.memory.insert(parent.memory.end(), else_frame.memory.begin(),
                         else_frame.memory.end());
  }
}

SymValue SymbolicEngine::rng_draw(const SymSite& site) {
  rng_ = true;
  note("rng", site, "kernel draws inference-time randomness");
  // RNG output is independent of the secret input.
  return SymValue{SymTaint::kPublic};
}

void SymbolicEngine::unmodeled() { unmodeled_ = true; }

void SymbolicEngine::note(const char* aspect, const SymSite& site,
                          std::string detail) {
  for (const Witness& w : witnesses_) {
    if (w.aspect == aspect) return;  // first witness per aspect
  }
  witnesses_.push_back(Witness{aspect, site.file, site.line, site.label,
                               std::move(detail)});
}

DerivedContract SymbolicEngine::finish(nn::ExecutionPath path) const {
  DerivedContract derived;
  nn::LeakageContract& c = derived.contract;
  if (unmodeled_) {
    c = nn::LeakageContract::undeclared();
    c.path = path;
    return derived;
  }
  derived.witnesses = witnesses_;
  c.branch_outcomes_vary = branch_outcomes_;
  c.branch_count_varies = branch_count_;
  c.address_stream_varies = address_stream_;
  c.instruction_count_varies = instruction_count_;
  c.consumes_rng = rng_;
  c.path = path;
  c.taint = nn::TaintTransfer::kSanitize;
  if (output_id_ != SIZE_MAX) {
    for (const SymValue& v : buffers_[output_id_]) {
      if (v.secret()) {
        c.taint = nn::TaintTransfer::kPropagate;
        break;
      }
    }
  }
  return derived;
}

namespace {

std::size_t numel(const std::vector<std::size_t>& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return n;
}

/// `input_shape` one step longer along the first dimension the layer
/// accepts longer without changing its output shape, if there is one.
std::optional<std::vector<std::size_t>> longer_input(
    const nn::Layer& layer, const std::vector<std::size_t>& input_shape) {
  const std::vector<std::size_t> output = layer.output_shape(input_shape);
  for (std::size_t d = 0; d < input_shape.size(); ++d) {
    std::vector<std::size_t> longer = input_shape;
    ++longer[d];
    try {
      if (layer.output_shape(longer) == output) return longer;
    } catch (const Error&) {
      // This dimension is fixed by the layer's geometry.
    }
  }
  return std::nullopt;
}

}  // namespace

DerivedContract derive_layer_contract(
    const nn::Layer& layer, const std::vector<std::size_t>& input_shape,
    nn::KernelMode mode, nn::ExecutionPath path) {
  SymbolicEngine engine(numel(input_shape));
  layer.symbolic_forward(engine, input_shape, mode, path);
  DerivedContract derived = engine.finish(path);
  if (!derived.contract.declared) return derived;
  if (const auto longer = longer_input(layer, input_shape)) {
    SymbolicEngine grown(numel(*longer));
    layer.symbolic_forward(grown, *longer, mode, path);
    derived.contract.shape_scales_trace =
        grown.retired() != engine.retired() ||
        grown.structural() != engine.structural();
  }
  return derived;
}

}  // namespace sce::analysis::symexec
