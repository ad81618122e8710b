// Dense tensors for feature maps (Tensor3) and kernel stacks (Tensor4).
// Logical indexing is always (d, y, x) / (dout, din, ky, kx). Host tensors
// have one memory order: Tensor3 is spatial-major, element (d, y, x) at
// storage()[(d*h + y)*w + x]. The depth-major/spatial-major choice of
// Algorithm 2 is the layout of a DRAM cube (tensor/layout.hpp), planned
// by the compiler and addressed by the simulator.
#pragma once

#include <algorithm>
#include <vector>

#include "cbrain/common/check.hpp"
#include "cbrain/tensor/shape.hpp"

namespace cbrain {

template <typename T>
class Tensor3 {
 public:
  Tensor3() = default;
  explicit Tensor3(MapDims dims)
      : dims_(dims), data_(static_cast<std::size_t>(dims.count())) {}

  const MapDims& dims() const { return dims_; }
  i64 size() const { return dims_.count(); }
  bool empty() const { return data_.empty(); }

  T& at(i64 d, i64 y, i64 x) { return data_[index(d, y, x)]; }
  const T& at(i64 d, i64 y, i64 x) const { return data_[index(d, y, x)]; }

  // Zero-padded read: coordinates outside the cube return T{} ('0's are
  // padded at the boundary', §4.2.1).
  T at_padded(i64 d, i64 y, i64 x) const {
    if (y < 0 || y >= dims_.h || x < 0 || x >= dims_.w) return T{};
    return at(d, y, x);
  }

  T* raw_data() { return data_.data(); }
  const T* raw_data() const { return data_.data(); }
  std::vector<T>& storage() { return data_; }
  const std::vector<T>& storage() const { return data_; }

  void fill(const T& v) { data_.assign(data_.size(), v); }

  bool logically_equal(const Tensor3<T>& other) const {
    return dims_ == other.dims_ && std::equal(data_.begin(), data_.end(),
                                              other.data_.begin());
  }

 private:
  std::size_t index(i64 d, i64 y, i64 x) const {
    CBRAIN_DCHECK(d >= 0 && d < dims_.d, "d out of range");
    CBRAIN_DCHECK(y >= 0 && y < dims_.h, "y out of range");
    CBRAIN_DCHECK(x >= 0 && x < dims_.w, "x out of range");
    return static_cast<std::size_t>((d * dims_.h + y) * dims_.w + x);
  }

  MapDims dims_;
  std::vector<T> data_;
};

template <typename T>
class Tensor4 {
 public:
  Tensor4() = default;
  explicit Tensor4(KernelDims dims)
      : dims_(dims), data_(static_cast<std::size_t>(dims.count())) {}

  const KernelDims& dims() const { return dims_; }
  i64 size() const { return dims_.count(); }
  bool empty() const { return data_.empty(); }

  T& at(i64 dout, i64 din, i64 ky, i64 kx) {
    return data_[index(dout, din, ky, kx)];
  }
  const T& at(i64 dout, i64 din, i64 ky, i64 kx) const {
    return data_[index(dout, din, ky, kx)];
  }

  T* raw_data() { return data_.data(); }
  const T* raw_data() const { return data_.data(); }
  std::vector<T>& storage() { return data_; }
  const std::vector<T>& storage() const { return data_; }

 private:
  std::size_t index(i64 dout, i64 din, i64 ky, i64 kx) const {
    CBRAIN_DCHECK(dout >= 0 && dout < dims_.dout, "dout out of range");
    CBRAIN_DCHECK(din >= 0 && din < dims_.din, "din out of range");
    CBRAIN_DCHECK(ky >= 0 && ky < dims_.kh, "ky out of range");
    CBRAIN_DCHECK(kx >= 0 && kx < dims_.kw, "kx out of range");
    return static_cast<std::size_t>(
        ((dout * dims_.din + din) * dims_.kh + ky) * dims_.kw + kx);
  }

  KernelDims dims_;
  std::vector<T> data_;
};

}  // namespace cbrain
