#include "cbrain/ref/executor.hpp"

#include "cbrain/ref/conv_ref.hpp"
#include "cbrain/ref/eltwise_ref.hpp"
#include "cbrain/ref/fc_ref.hpp"
#include "cbrain/ref/host_ops_ref.hpp"
#include "cbrain/ref/lrn_ref.hpp"
#include "cbrain/ref/pool_ref.hpp"

namespace cbrain {

template <typename T>
RefExecutor<T>::RefExecutor(const Network& net,
                            const NetParamsData<T>& params)
    : net_(net), params_(params) {
  CBRAIN_CHECK(static_cast<i64>(params.per_layer.size()) == net.size(),
               "parameter table does not match network");
}

template <typename T>
const Tensor3<T>& RefExecutor<T>::run(const Tensor3<T>& input) {
  outputs_.assign(static_cast<std::size_t>(net_.size()), Tensor3<T>{});
  for (const Layer& l : net_.layers()) {
    const auto idx = static_cast<std::size_t>(l.id);
    const auto& pdata = params_.per_layer[idx];
    switch (l.kind) {
      case LayerKind::kInput:
        CBRAIN_CHECK(input.dims() == l.out_dims,
                     "input dims " << input.dims().to_string()
                                   << " != network input "
                                   << l.out_dims.to_string());
        outputs_[idx] = input;
        break;
      case LayerKind::kConv:
        outputs_[idx] = conv2d_ref(output(l.inputs[0]), pdata.weights,
                                   pdata.bias, l.conv());
        break;
      case LayerKind::kPool:
        outputs_[idx] = pool2d_ref(output(l.inputs[0]), l.pool());
        break;
      case LayerKind::kFC:
        outputs_[idx] =
            fc_ref(output(l.inputs[0]), pdata.weights, pdata.bias, l.fc());
        break;
      case LayerKind::kLRN:
        outputs_[idx] = lrn_ref(output(l.inputs[0]), l.lrn());
        break;
      case LayerKind::kConcat: {
        std::vector<const Tensor3<T>*> ins;
        ins.reserve(l.inputs.size());
        for (LayerId id : l.inputs) ins.push_back(&output(id));
        outputs_[idx] = concat_ref(ins, l.out_dims);
        break;
      }
      case LayerKind::kSoftmax:
        outputs_[idx] = softmax_ref(output(l.inputs[0]));
        break;
      case LayerKind::kEltwiseAdd:
        outputs_[idx] = eltwise_add_ref(output(l.inputs[0]),
                                        output(l.inputs[1]), l.eltwise());
        break;
    }
  }
  return outputs_.back();
}

template <typename T>
const Tensor3<T>& RefExecutor<T>::output(LayerId id) const {
  CBRAIN_CHECK(id >= 0 && id < static_cast<i64>(outputs_.size()),
               "no output for layer " << id);
  const auto& t = outputs_[static_cast<std::size_t>(id)];
  CBRAIN_CHECK(!t.empty(), "layer " << id << " has not been executed");
  return t;
}

template class RefExecutor<float>;
template class RefExecutor<Fixed16>;

}  // namespace cbrain
