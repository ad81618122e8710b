// Program-verifier tests: every compile the library can produce must
// verify clean (the compile matrix below covers all zoo networks x all
// policies x both paper PE widths, plus tiny-buffer stress), and
// deliberately corrupted programs must be flagged with the right rule.
#include <gtest/gtest.h>

#include "cbrain/compiler/verifier.hpp"
#include "cbrain/core/cbrain.hpp"
#include "cbrain/nn/zoo.hpp"

namespace cbrain {
namespace {

TEST(Verifier, CompileMatrixIsClean) {
  std::vector<Network> nets = zoo::paper_benchmarks();
  nets.push_back(zoo::squeezenet());
  nets.push_back(zoo::zfnet());
  nets.push_back(zoo::mini_inception());
  nets.push_back(zoo::tiny_cnn());
  for (const Network& net : nets) {
    for (Policy policy : paper_policies()) {
      for (const AcceleratorConfig& config :
           {AcceleratorConfig::paper_16_16(),
            AcceleratorConfig::paper_32_32()}) {
        const auto compiled = compile_network(net, policy, config);
        ASSERT_TRUE(compiled.is_ok())
            << net.name() << " " << policy_name(policy);
        const VerifyReport report =
            verify_program(net, compiled.value(), config);
        EXPECT_TRUE(report.ok())
            << net.name() << " under " << policy_name(policy) << " @"
            << config.tin << "-" << config.tout << ":\n"
            << report.to_string();
      }
    }
  }
}

TEST(Verifier, TinyBufferStressIsClean) {
  AcceleratorConfig config = AcceleratorConfig::with_pe(4, 4);
  config.inout_buf.size_bytes = 4 * 1024;
  config.weight_buf.size_bytes = 2 * 1024;
  config.bias_buf.size_bytes = 1024;
  for (const Network& net :
       {zoo::tiny_cnn(), zoo::scheme_mix_cnn(), zoo::mini_inception()}) {
    for (Policy policy : paper_policies()) {
      const auto compiled = compile_network(net, policy, config);
      ASSERT_TRUE(compiled.is_ok());
      const VerifyReport report =
          verify_program(net, compiled.value(), config);
      EXPECT_TRUE(report.ok()) << net.name() << " "
                               << policy_name(policy) << ":\n"
                               << report.to_string();
    }
  }
}

// Corrupt a clean program in targeted ways and check the verifier's
// diagnosis.
class VerifierMutations : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = zoo::tiny_cnn();
    config_ = AcceleratorConfig::with_pe(4, 4);
    auto compiled = compile_network(net_, Policy::kAdaptive2, config_);
    ASSERT_TRUE(compiled.is_ok());
    compiled_ = std::make_unique<CompiledNetwork>(
        std::move(compiled).value());
  }

  // First instruction index holding the given alternative.
  template <typename T>
  i64 find_instr() {
    for (i64 i = 0; i < compiled_->program.size(); ++i)
      if (std::holds_alternative<T>(compiled_->program.at(i))) return i;
    return -1;
  }

  template <typename T>
  T& mutate(i64 idx) {
    return std::get<T>(
        const_cast<Instruction&>(compiled_->program.at(idx)));
  }

  bool has_rule(const VerifyReport& r, const std::string& rule) {
    for (const auto& i : r.issues)
      if (i.rule == rule) return true;
    return false;
  }

  Network net_{"unset"};
  AcceleratorConfig config_;
  std::unique_ptr<CompiledNetwork> compiled_;
};

TEST_F(VerifierMutations, LoadOverflowIsV1) {
  const i64 idx = find_instr<LoadInstr>();
  ASSERT_GE(idx, 0);
  mutate<LoadInstr>(idx).dst_addr = config_.inout_buf.size_words();
  EXPECT_TRUE(has_rule(verify_program(net_, *compiled_, config_), "V1"));
}

TEST_F(VerifierMutations, DramOverreadIsV2) {
  const i64 idx = find_instr<LoadInstr>();
  ASSERT_GE(idx, 0);
  mutate<LoadInstr>(idx).src = compiled_->layout.total_words;
  EXPECT_TRUE(has_rule(verify_program(net_, *compiled_, config_), "V2"));
}

TEST_F(VerifierMutations, UnfilledBandIsV3) {
  const i64 conv = find_instr<ConvTileInstr>();
  ASSERT_GE(conv, 0);
  mutate<ConvTileInstr>(conv).input_base += 64;  // shifted past the fill
  EXPECT_TRUE(has_rule(verify_program(net_, *compiled_, config_), "V3"));
}

TEST_F(VerifierMutations, BudgetOverrunIsV4) {
  const i64 conv = find_instr<ConvTileInstr>();
  ASSERT_GE(conv, 0);
  // Shrink the modeled buffer instead of growing the tile.
  config_.inout_buf.size_bytes = 128;
  const VerifyReport r = verify_program(net_, *compiled_, config_);
  EXPECT_TRUE(has_rule(r, "V4"));
}

TEST_F(VerifierMutations, StoreEscapeIsV5) {
  const i64 conv = find_instr<ConvTileInstr>();
  ASSERT_GE(conv, 0);
  // Finalizing tiles store to their layer's out maps; shift one past the
  // consumer cube.
  auto& maps = compiled_->layout.out_maps[static_cast<std::size_t>(
      std::get<ConvTileInstr>(compiled_->program.at(conv)).layer)];
  ASSERT_FALSE(maps.empty());
  maps[0].d_offset += 1000;
  EXPECT_TRUE(has_rule(verify_program(net_, *compiled_, config_), "V5"));
}

TEST_F(VerifierMutations, MissingTileIsV6) {
  // Drop one conv tile's finalize contribution by shrinking its rows.
  const i64 conv = find_instr<ConvTileInstr>();
  ASSERT_GE(conv, 0);
  mutate<ConvTileInstr>(conv).out_row1 -= 1;
  EXPECT_TRUE(has_rule(verify_program(net_, *compiled_, config_), "V6"));
}

}  // namespace
}  // namespace cbrain
