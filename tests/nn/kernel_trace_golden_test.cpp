// Per-kernel event-stream golden digests.
//
// Every instrumented kernel cell (op × KernelMode) runs once on a fixed
// seeded input through a RecordingSink.  The recorded stream is made
// position-independent — each address becomes (buffer ordinal, byte
// offset) over the layer's input, output, parameter and workspace
// buffers, and each branch pc becomes the ordinal of its first
// appearance — and hashed.  The pinned digests therefore fix the exact
// event sequence of each kernel: kind, order, offsets, access widths,
// branch outcomes, retire amounts and structural back-edge counts.  Any
// rewrite of an instrumented kernel must leave them unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nn/activation.hpp"
#include "nn/avgpool.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/pool.hpp"
#include "nn/rnn.hpp"
#include "nn/shape_ops.hpp"
#include "nn/workspace.hpp"
#include "test_helpers.hpp"
#include "uarch/trace.hpp"
#include "util/digest.hpp"
#include "util/rng.hpp"

namespace sce::nn {
namespace {

struct Region {
  std::uintptr_t base;
  std::size_t bytes;
};

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
}

/// Input with exact zeros (zero-skips go both ways) and negatives (sign
/// and max-update branches go both ways).
Tensor golden_input(std::vector<std::size_t> shape) {
  Tensor t = testing::random_tensor(std::move(shape), 0x5EED);
  for (std::size_t i = 0; i < t.numel(); i += 3) t[i] = 0.0f;
  return t;
}

struct Stream {
  std::string digest;
  std::size_t events = 0;
  std::size_t branch_sites = 0;
  bool every_site_both_ways = true;
};

Stream record(const Layer& layer, const Tensor& input, KernelMode mode) {
  Tensor output;
  Workspace workspace;
  uarch::RecordingSink sink;
  layer.forward_into(input, output, workspace, sink, mode,
                     ExecutionPath::kInstrumented);

  std::vector<Region> regions;
  auto add = [&](const void* base, std::size_t bytes) {
    regions.push_back({reinterpret_cast<std::uintptr_t>(base), bytes});
  };
  add(input.data(), input.numel() * sizeof(float));
  add(output.data(), output.numel() * sizeof(float));
  layer.visit_buffers([&](const std::string&, const void* base,
                          std::size_t bytes) { add(base, bytes); });
  for (std::size_t i = 0; i < workspace.slot_count(); ++i) {
    const Tensor& slot = workspace.slot(i);
    add(slot.data(), slot.numel() * sizeof(float));
  }

  Stream run;
  std::map<std::uintptr_t, std::uint64_t> pcs;
  std::map<std::uintptr_t, unsigned> outcomes;  // bit 0 not taken, 1 taken
  std::string canonical;
  for (const uarch::RecordingSink::Event& e : sink.events()) {
    canonical.push_back(static_cast<char>(e.kind));
    switch (e.kind) {
      case uarch::RecordingSink::Kind::kLoad:
      case uarch::RecordingSink::Kind::kStore: {
        std::size_t ordinal = regions.size();
        for (std::size_t r = 0; r < regions.size(); ++r) {
          if (e.address >= regions[r].base &&
              e.address < regions[r].base + regions[r].bytes) {
            ordinal = r;
            break;
          }
        }
        EXPECT_LT(ordinal, regions.size())
            << layer.name() << ": access outside every known buffer";
        if (ordinal == regions.size()) return run;
        append_u64(canonical, ordinal);
        append_u64(canonical, e.address - regions[ordinal].base);
        break;
      }
      case uarch::RecordingSink::Kind::kBranch: {
        const auto [it, inserted] = pcs.emplace(e.address, pcs.size());
        (void)inserted;
        append_u64(canonical, it->second);
        outcomes[e.address] |= e.value != 0 ? 2u : 1u;
        break;
      }
      case uarch::RecordingSink::Kind::kStructuralBranches:
      case uarch::RecordingSink::Kind::kRetire:
        break;
    }
    append_u64(canonical, e.value);
  }
  run.events = sink.events().size();
  run.branch_sites = pcs.size();
  for (const auto& [pc, seen] : outcomes) {
    (void)pc;
    if (seen != 3u) run.every_site_both_ways = false;
  }
  run.digest = util::content_digest_hex(canonical);
  return run;
}

struct Cell {
  const char* op;
  std::unique_ptr<Layer> layer;
  std::vector<std::size_t> input_shape;
  const char* data_dependent_digest;
  const char* constant_flow_digest;
};

std::unique_ptr<Layer> conv(ConvAlgorithm algorithm) {
  auto layer = std::make_unique<Conv2D>(2, 3, 3, /*stride=*/1,
                                        /*padding=*/1);
  layer->set_algorithm(algorithm);
  return layer;
}

std::vector<Cell> cells() {
  // {op, layer, input shape, data-dependent digest, constant-flow digest}
  std::vector<Cell> out;
  out.push_back({"conv2d.direct", conv(ConvAlgorithm::kDirect), {2, 5, 5},
                 "b7681378bc9d8fb00bc5b7fa4eadd6b4",
                 "e61e1febfe68729e47a4ae709177776a"});
  out.push_back({"conv2d.im2col", conv(ConvAlgorithm::kIm2col), {2, 5, 5},
                 "a637eed1513c73ee18e0f68592d81fae",
                 "384812ddfb444c7c5014b802a191ba0c"});
  out.push_back({"dense", std::make_unique<Dense>(12, 5), {12},
                 "8ba4cd4d472bf077dd849247ebd567a5",
                 "56deb3a016c98067ed9c56e0a0505505"});
  out.push_back({"relu", std::make_unique<ReLU>(), {20},
                 "74e3083a6c1d632542ce44eea16e2c80",
                 "a3d42d9bcae6493ee6ddedcf7695864b"});
  out.push_back({"maxpool2d", std::make_unique<MaxPool2D>(2), {2, 5, 5},
                 "0422aad716b896b20c61ad45aa3d8854",
                 "88a4b9e0349e27f5d515c5a9115ce05f"});
  out.push_back({"avgpool2d", std::make_unique<AvgPool2D>(2), {2, 5, 5},
                 "cd2f44d70a9e73cd6f7c79ec85c3d1af",
                 "cd2f44d70a9e73cd6f7c79ec85c3d1af"});
  out.push_back({"softmax", std::make_unique<Softmax>(), {10},
                 "b2552064d416d44cc41c60e46e3821b1",
                 "b2552064d416d44cc41c60e46e3821b1"});
  out.push_back({"elman-rnn", std::make_unique<ElmanRNN>(4, 6), {3, 4},
                 "6b5647560ad06f8683971010927176c4",
                 "dbd161c637753c6009b739e4399e335c"});
  return out;
}

TEST(KernelTraceGolden, InstrumentedStreamsMatchPinnedDigests) {
  std::vector<Cell> all = cells();
  ASSERT_EQ(all.size(), 8u);
  for (Cell& cell : all) {
    util::Rng rng(0xC0FFEE);
    cell.layer->initialize(rng);
    const Tensor input = golden_input(cell.input_shape);
    for (KernelMode mode :
         {KernelMode::kDataDependent, KernelMode::kConstantFlow}) {
      SCOPED_TRACE(std::string(cell.op) + " / " + to_string(mode));
      const Stream run = record(*cell.layer, input, mode);
      ASSERT_GT(run.events, 0u);
      // Every data-dependent branch site in the fixture goes both ways.
      EXPECT_TRUE(run.every_site_both_ways);
      const char* pinned = mode == KernelMode::kDataDependent
                               ? cell.data_dependent_digest
                               : cell.constant_flow_digest;
      EXPECT_EQ(run.digest, pinned)
          << cell.op << " " << to_string(mode) << ": " << run.events
          << " events, " << run.branch_sites << " branch sites";
    }
  }
}

/// Constant-flow cells emit no data branch; data-dependent cells of the
/// branching kernels do.  Guards the fixture itself: a pinned stream is
/// only worth something if it exercises the branches it pins.
TEST(KernelTraceGolden, FixtureExercisesEveryBranchSite) {
  const std::map<std::string, std::size_t> data_sites = {
      {"conv2d.direct", 1}, {"conv2d.im2col", 1}, {"dense", 1},
      {"relu", 1},          {"maxpool2d", 1},     {"avgpool2d", 0},
      {"softmax", 0},       {"elman-rnn", 3}};
  std::vector<Cell> all = cells();
  for (Cell& cell : all) {
    util::Rng rng(0xC0FFEE);
    cell.layer->initialize(rng);
    const Tensor input = golden_input(cell.input_shape);
    EXPECT_EQ(record(*cell.layer, input, KernelMode::kDataDependent)
                  .branch_sites,
              data_sites.at(cell.op))
        << cell.op;
    EXPECT_EQ(
        record(*cell.layer, input, KernelMode::kConstantFlow).branch_sites,
        0u)
        << cell.op;
  }
}

}  // namespace
}  // namespace sce::nn
