// Pins the text rendered from compiled programs: the full disassembly of
// every zoo network under every paper policy, and the span names of
// ResNet-18's model timeline. Record labels are derived from each
// record's fields and its owning layer, so any drift in how they are
// built shows up here as a digest mismatch.
#include <gtest/gtest.h>

#include <string_view>

#include "cbrain/compiler/compiler.hpp"
#include "cbrain/isa/disassembler.hpp"
#include "cbrain/model/network_model.hpp"
#include "cbrain/nn/zoo.hpp"
#include "cbrain/obs/tracer.hpp"

namespace cbrain {
namespace {

constexpr u64 kFnvBasis = 0xcbf29ce484222325ull;

// 64-bit FNV-1a over the bytes of `s`, continuing from `h`.
u64 fnv1a(u64 h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(RenderedText, DisassemblyOfEveryZooNetUnderEveryPolicy) {
  const AcceleratorConfig cfg = AcceleratorConfig::paper_16_16();
  const Policy kPolicies[] = {Policy::kFixedInter, Policy::kFixedIntra,
                              Policy::kFixedPartition, Policy::kAdaptive1,
                              Policy::kAdaptive2};
  // One digest per policy, in kPolicies order.
  const struct {
    Network net;
    u64 digests[5];
  } kCases[] = {
      {zoo::alexnet(),
       {17787355347213892719ull, 14680789704524820246ull,
        2664094471953962472ull, 5935279140943674034ull,
        5294814492262656334ull}},
      {zoo::googlenet(),
       {2193619743100864845ull, 12033923176854643451ull,
        4663399187765727530ull, 4056673529862789080ull,
        4416253773291758552ull}},
      {zoo::vgg16(),
       {12019598626954826222ull, 3269972789249049028ull,
        17961332919477324083ull, 16057402355805357463ull,
        16392575103423138602ull}},
      {zoo::nin(),
       {135556597299472180ull, 6747476087424969971ull,
        17179560095413462855ull, 12492395090167678871ull,
        629050404087559759ull}},
      {zoo::tiny_cnn(),
       {9259142493065110745ull, 11025633304757128448ull,
        1040266583891875475ull, 1040266583891875475ull,
        1040266583891875475ull}},
      {zoo::scheme_mix_cnn(),
       {14587512205303956585ull, 16605782543178116763ull,
        11153848083723704187ull, 5326775421562086551ull,
        16859583905173180144ull}},
      {zoo::mini_inception(),
       {13186041530807695279ull, 6941670196952668297ull,
        8931277091867754051ull, 7697466368446261986ull,
        2185988307576593663ull}},
      {zoo::lenet5(),
       {15612440883965766441ull, 9137920106029064336ull,
        6800385750143770862ull, 14577459295943207059ull,
        10517240894982186044ull}},
      {zoo::zfnet(),
       {8648123126280525323ull, 11608414729566489086ull,
        10229290410168647803ull, 3795113092036232052ull,
        13697530784098007716ull}},
      {zoo::squeezenet(),
       {7815715476211289355ull, 15885265937113559831ull,
        908767579797121878ull, 6954786684331374661ull,
        1623535986260588114ull}},
      {zoo::resnet18(),
       {13488780317728637804ull, 10559281325694198288ull,
        8495816747280920256ull, 5267537980935434447ull,
        16745891099182779399ull}},
      {zoo::mobilenetv1(),
       {52529779626395158ull, 14398801388885170810ull,
        12415816847356586729ull, 2709098357828292610ull,
        17695575294992065648ull}},
  };
  for (const auto& [net, digests] : kCases)
    for (int p = 0; p < 5; ++p) {
      SCOPED_TRACE(net.name() + " " + policy_name(kPolicies[p]));
      const auto compiled = compile_network(net, kPolicies[p], cfg);
      ASSERT_TRUE(compiled.is_ok()) << compiled.status().to_string();
      const std::string text =
          disassemble(compiled.value().program, net, -1);
      EXPECT_EQ(fnv1a(kFnvBasis, text), digests[p]);
    }
}

TEST(RenderedText, TimelineSpanNamesOfResNet18) {
  const AcceleratorConfig cfg = AcceleratorConfig::paper_16_16();
  const Network net = zoo::resnet18();
  const auto compiled = compile_network(net, Policy::kAdaptive2, cfg);
  ASSERT_TRUE(compiled.is_ok());
  obs::TraceData data;
  model_network(net, compiled.value(), cfg, {}, &data);
  u64 h = kFnvBasis;
  for (const obs::Span& s : data.spans) h = fnv1a(fnv1a(h, s.name), "\n");
  EXPECT_EQ(data.spans.size(), 152u);
  EXPECT_EQ(h, 11349105033080758319ull);
}

}  // namespace
}  // namespace cbrain
