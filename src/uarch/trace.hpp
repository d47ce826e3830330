// The hardware/software contract of the simulated PMU.
//
// Instrumented kernels (sce::nn) report their dynamic memory accesses,
// conditional branches and retired instructions to a TraceSink; the
// microarchitectural models in this library consume that stream to produce
// the same event counts a real PMU would.  The addresses reported are the
// *actual* virtual addresses of the kernel's buffers, so layout, alignment
// and reuse distances are those of the real computation.
#pragma once

#include <cstdint>
#include <vector>

namespace sce::uarch {

class SimulatorSink;

/// Receiver of a dynamic execution trace.  Implementations must tolerate
/// arbitrary interleavings; calls are strictly program-ordered.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// A data load of `bytes` bytes starting at `addr` (may span lines).
  virtual void load(const void* addr, std::size_t bytes) = 0;
  /// A data store of `bytes` bytes starting at `addr`.
  virtual void store(const void* addr, std::size_t bytes) = 0;
  /// A conditional branch at static site `pc` with outcome `taken`.
  virtual void branch(std::uintptr_t pc, bool taken) = 0;
  /// `n` loop back-edge / structural branches retired in bulk.  These are
  /// perfectly biased (taken) and independent of the data, so models may
  /// count them without simulating each one individually.
  virtual void structural_branches(std::uint64_t n) = 0;
  /// `n` additional (non-branch, non-memory) instructions retired.
  virtual void retire(std::uint64_t n) = 0;

  /// True when every event is provably discarded (NullSink).  Layers then
  /// may run the untraced fast kernels, and the instrumented kernels run
  /// their DiscardSink instantiation, in which every trace call compiles
  /// away.
  virtual bool discards() const { return false; }
  /// The simulator this sink is, if it is one (SimulatorSink, and with it
  /// hpc::SimulatedPmu); null otherwise.  The instrumented kernels then
  /// run their SimulatorSink instantiation, which calls the simulator's
  /// inline event methods instead of this interface per event.
  ///
  /// Both hooks are asked once per kernel call, by one helper
  /// (nn::kernels::with_static_sink in nn/kernels/domain.hpp), which picks
  /// among three instantiations of each kernel: DiscardSink, SimulatorSink
  /// and TraceSink for every other sink.
  virtual SimulatorSink* simulator() { return nullptr; }
};

/// Discards everything; used by training and un-instrumented runs.
class NullSink final : public TraceSink {
 public:
  void load(const void*, std::size_t) override {}
  void store(const void*, std::size_t) override {}
  void branch(std::uintptr_t, bool) override {}
  void structural_branches(std::uint64_t) override {}
  void retire(std::uint64_t) override {}
  bool discards() const override { return true; }
};

/// Non-virtual no-op sink.  Kernels are templates over the sink type; when
/// a TraceSink reports discards(), the kernel runs its instantiation over
/// this type and the compiler deletes every trace call.  Not a TraceSink
/// on purpose: it must never be passed through a TraceSink&.
struct DiscardSink {
  void load(const void*, std::size_t) {}
  void store(const void*, std::size_t) {}
  void branch(std::uintptr_t, bool) {}
  void structural_branches(std::uint64_t) {}
  void retire(std::uint64_t) {}
};

/// Tallies raw event counts without any microarchitectural model; useful
/// for tests and for characterizing a kernel's instruction mix.
class CountingSink final : public TraceSink {
 public:
  void load(const void*, std::size_t bytes) override {
    ++loads_;
    load_bytes_ += bytes;
  }
  void store(const void*, std::size_t bytes) override {
    ++stores_;
    store_bytes_ += bytes;
  }
  void branch(std::uintptr_t, bool taken) override {
    ++branches_;
    if (taken) ++taken_;
  }
  void structural_branches(std::uint64_t n) override {
    branches_ += n;
    taken_ += n;
  }
  void retire(std::uint64_t n) override { retired_ += n; }

  std::uint64_t loads() const { return loads_; }
  std::uint64_t stores() const { return stores_; }
  std::uint64_t load_bytes() const { return load_bytes_; }
  std::uint64_t store_bytes() const { return store_bytes_; }
  std::uint64_t branches() const { return branches_; }
  std::uint64_t taken_branches() const { return taken_; }
  std::uint64_t retired() const { return retired_; }
  /// Total dynamic instructions: memory ops + branches + other retired.
  std::uint64_t instructions() const {
    return loads_ + stores_ + branches_ + retired_;
  }

 private:
  std::uint64_t loads_ = 0;
  std::uint64_t stores_ = 0;
  std::uint64_t load_bytes_ = 0;
  std::uint64_t store_bytes_ = 0;
  std::uint64_t branches_ = 0;
  std::uint64_t taken_ = 0;
  std::uint64_t retired_ = 0;
};

/// Records the full trace for replay/inspection in tests.
class RecordingSink final : public TraceSink {
 public:
  enum class Kind : std::uint8_t {
    kLoad,
    kStore,
    kBranch,
    kStructuralBranches,
    kRetire
  };
  struct Event {
    Kind kind;
    std::uintptr_t address;  // load/store address or branch pc
    std::uint64_t value;     // bytes, taken flag, or retired count
  };

  void load(const void* addr, std::size_t bytes) override {
    events_.push_back(
        {Kind::kLoad, reinterpret_cast<std::uintptr_t>(addr), bytes});
  }
  void store(const void* addr, std::size_t bytes) override {
    events_.push_back(
        {Kind::kStore, reinterpret_cast<std::uintptr_t>(addr), bytes});
  }
  void branch(std::uintptr_t pc, bool taken) override {
    events_.push_back({Kind::kBranch, pc, taken ? 1u : 0u});
  }
  void structural_branches(std::uint64_t n) override {
    events_.push_back({Kind::kStructuralBranches, 0, n});
  }
  void retire(std::uint64_t n) override {
    events_.push_back({Kind::kRetire, 0, n});
  }

  const std::vector<Event>& events() const { return events_; }
  void clear() { events_.clear(); }

 private:
  std::vector<Event> events_;
};

/// Fans a trace out to several sinks (e.g. a simulated PMU plus a recorder).
class TeeSink final : public TraceSink {
 public:
  explicit TeeSink(std::vector<TraceSink*> sinks);

  void load(const void* addr, std::size_t bytes) override;
  void store(const void* addr, std::size_t bytes) override;
  void branch(std::uintptr_t pc, bool taken) override;
  void structural_branches(std::uint64_t n) override;
  void retire(std::uint64_t n) override;

 private:
  std::vector<TraceSink*> sinks_;
};

}  // namespace sce::uarch
