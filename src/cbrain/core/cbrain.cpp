#include "cbrain/core/cbrain.hpp"

#include <algorithm>

#include "cbrain/common/thread_pool.hpp"

namespace cbrain {

const std::vector<Policy>& paper_policies() {
  static const std::vector<Policy> kPolicies = {
      Policy::kFixedInter, Policy::kFixedIntra, Policy::kFixedPartition,
      Policy::kAdaptive1, Policy::kAdaptive2};
  return kPolicies;
}

const NetworkModelResult& PolicyComparison::by_policy(Policy p) const {
  for (const NetworkModelResult& r : results)
    if (r.policy == p) return r;
  CBRAIN_CHECK(false, "policy " << policy_name(p) << " not in comparison");
  return results.front();
}

double PolicyComparison::speedup(Policy a, Policy b) const {
  const auto ca = static_cast<double>(by_policy(a).cycles());
  const auto cb = static_cast<double>(by_policy(b).cycles());
  return ca > 0 ? cb / ca : 0.0;
}

const CompiledNetwork& CBrain::compile(const Network& net, Policy policy) {
  // The engine's cache owns the program and never evicts, so the
  // reference outlives the returned shared_ptr copy.
  return *engine_.compile(net, policy);
}

NetworkModelResult CBrain::evaluate(const Network& net, Policy policy) {
  return model_network(net, compile(net, policy), config(), options_);
}

SimResult CBrain::simulate(const Network& net, Policy policy,
                           const Tensor3<Fixed16>& input,
                           const NetParamsData<Fixed16>& params,
                           Fidelity fidelity) {
  auto session = engine_.open_session(net, policy, params, fidelity);
  return session->infer(input);
}

SimResult CBrain::simulate(const Network& net, Policy policy,
                           std::uint64_t seed, Fidelity fidelity) {
  const auto params = init_net_params<Fixed16>(net, seed);
  const auto input =
      random_input<Fixed16>(net.layer(0).out_dims, seed ^ 0x1234);
  return simulate(net, policy, input, params, fidelity);
}

PolicyComparison CBrain::compare_policies(const Network& net) {
  return compare_policies(net, paper_policies());
}

PolicyComparison CBrain::compare_policies(
    const Network& net, const std::vector<Policy>& policies) {
  PolicyComparison cmp;
  // The engine's compile cache is thread-safe, so each task compiles (or
  // fetches) its own program directly — no task-local merge dance.
  cmp.results = parallel::parallel_map<NetworkModelResult>(
      static_cast<i64>(policies.size()), [&](i64 i) {
        return evaluate(net, policies[static_cast<std::size_t>(i)]);
      });
  // The ideal bound reads adap-2's non-conv layers: reuse the comparison's
  // own adap-2 model, or model the cached adap-2 program if it has none.
  const auto adaptive2 =
      std::find_if(cmp.results.begin(), cmp.results.end(),
                   [](const NetworkModelResult& r) {
                     return r.policy == Policy::kAdaptive2;
                   });
  cmp.ideal_cycles =
      adaptive2 != cmp.results.end()
          ? ideal_network_cycles(net, *adaptive2, config())
          : ideal_network_cycles(net, evaluate(net, Policy::kAdaptive2),
                                 config());
  return cmp;
}

}  // namespace cbrain
