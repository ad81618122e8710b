// Runtime backend dispatch for cbrain::simd (see simd.hpp for the
// contract). Resolution happens exactly once, on the first kernel call,
// under std::call_once: the CBRAIN_SIMD environment variable picks a
// backend, "auto" (or unset, or anything unusable) resolves to the best
// the build and the CPU support. Installation is an atomic pointer swap,
// so tests and the CLI can switch backends mid-process.
#include "cbrain/simd/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>

#include "cbrain/common/check.hpp"
#include "cbrain/common/logging.hpp"
#include "cbrain/simd/backend_impl.hpp"

namespace cbrain::simd {
namespace {

using detail::KernelTable;

const KernelTable* table_for(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return detail::scalar_table();
    case Backend::kAvx2:
      return detail::avx2_table();
    case Backend::kAvxVnni:
      return detail::avxvnni_table();
  }
  return nullptr;
}

bool cpu_supports(Backend b) {
#if defined(__x86_64__) || defined(__i386__)
  switch (b) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
      return __builtin_cpu_supports("avx2");
    case Backend::kAvxVnni:
      return __builtin_cpu_supports("avx2") &&
             __builtin_cpu_supports("avxvnni");
  }
  return false;
#else
  return b == Backend::kScalar;
#endif
}

// Every backend, slowest first.
constexpr Backend kBackends[] = {Backend::kScalar, Backend::kAvx2,
                                 Backend::kAvxVnni};

Backend best_supported() { return supported_backends().back(); }

std::atomic<const KernelTable*> g_table{nullptr};
std::atomic<int> g_backend{static_cast<int>(Backend::kScalar)};

void install(Backend b) {
  g_backend.store(static_cast<int>(b), std::memory_order_relaxed);
  g_table.store(table_for(b), std::memory_order_release);
}

bool parse_backend(const std::string& name, Backend* out) {
  for (Backend b : kBackends)
    if (name == backend_name(b)) return *out = b, true;
  return false;
}

Backend resolve_from_env() {
  const char* env = std::getenv("CBRAIN_SIMD");
  if (env == nullptr || *env == '\0' || std::string(env) == "auto")
    return best_supported();
  Backend b;
  if (!parse_backend(env, &b)) {
    CBRAIN_LOG(kWarn) << "CBRAIN_SIMD='" << env
                      << "' is not auto|avx2|avxvnni|scalar; using "
                      << backend_name(best_supported());
    return best_supported();
  }
  if (!backend_supported(b)) {
    CBRAIN_LOG(kWarn) << "CBRAIN_SIMD=" << env
                      << " not supported on this build/CPU; using "
                      << backend_name(best_supported());
    return best_supported();
  }
  return b;
}

// First-use env resolution. A bare load-then-install here would let two
// threads racing on first use both run resolve_from_env() + install()
// (double-logging any CBRAIN_SIMD warning and double-installing), so the
// resolution is serialized through std::call_once: exactly one thread
// resolves, everyone else blocks until the table is visible. Later
// select_backend() overrides still go straight through install() — the
// once-flag only guards the *implicit* env resolution.
std::once_flag g_env_resolve_once;
std::atomic<int> g_env_resolve_count{0};

const KernelTable* table() {
  const KernelTable* t = g_table.load(std::memory_order_acquire);
  if (t != nullptr) return t;
  std::call_once(g_env_resolve_once, [] {
    // select_backend() may have installed a table between our load and
    // this call_once; env resolution must not clobber that explicit
    // choice.
    if (g_table.load(std::memory_order_acquire) != nullptr) return;
    g_env_resolve_count.fetch_add(1, std::memory_order_relaxed);
    install(resolve_from_env());
  });
  return g_table.load(std::memory_order_acquire);
}

}  // namespace

int env_resolve_count() {
  return g_env_resolve_count.load(std::memory_order_relaxed);
}

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kAvxVnni:
      return "avxvnni";
  }
  return "?";
}

bool backend_supported(Backend b) {
  return table_for(b) != nullptr && cpu_supports(b);
}

std::vector<Backend> supported_backends() {
  std::vector<Backend> v;
  for (Backend b : kBackends)
    if (backend_supported(b)) v.push_back(b);
  return v;
}

Backend active_backend() {
  table();  // force resolution
  return static_cast<Backend>(g_backend.load(std::memory_order_relaxed));
}

bool select_backend(const std::string& name) {
  if (name == "auto") {
    install(best_supported());
    return true;
  }
  Backend b;
  if (!parse_backend(name, &b) || !backend_supported(b)) return false;
  install(b);
  return true;
}

void select_backend(Backend b) {
  CBRAIN_CHECK(backend_supported(b),
               "SIMD backend " << backend_name(b)
                               << " not supported on this build/CPU");
  install(b);
}

void dot_s16_mrhs(const std::int16_t* data, i64 data_stride, i64 cols,
                  const std::int16_t* weights, i64 row_stride, i64 rows,
                  i64 n, Fixed16::acc_t* out, i64 out_stride) {
  table()->dot_s16_mrhs(data, data_stride, cols, weights, row_stride, rows, n,
                        out, out_stride);
}

void dot_s16_mrhs_exact(const std::int16_t* data, i64 data_stride, i64 cols,
                        const std::int16_t* weights, i64 row_stride, i64 rows,
                        i64 n, Fixed16::acc_t* out, i64 out_stride) {
  table()->dot_s16_mrhs_exact(data, data_stride, cols, weights, row_stride,
                              rows, n, out, out_stride);
}

bool filter_sum_ok(const std::int16_t* weights, i64 row_stride, i64 rows,
                   i64 n) {
  // 32768 * sum|w| <= 32768 * 65535 = 2^31 - 32768 bounds |acc| for any
  // int16 data. Each row sums |w| in 16 int32 lanes over blocks of
  // kBlock elements, the shape the compiler vectorizes: a lane collects at
  // most kBlock / 16 * 32768 = 2^25 per block, so none can overflow. The
  // blocks add into an int64 sum, and a row stops at the first block that
  // takes it past the bound.
  constexpr i64 kBlock = 16 * 1024;
  for (i64 l = 0; l < rows; ++l) {
    const std::int16_t* row = weights + l * row_stride;
    i64 sum = 0;
    for (i64 b = 0; b < n && sum <= kFilterSumBound; b += kBlock) {
      const i64 end = std::min(n, b + kBlock);
      std::int32_t lane[16] = {};
      i64 i = b;
      for (; i + 16 <= end; i += 16)
        for (int e = 0; e < 16; ++e) {
          const std::int32_t v = row[i + e];
          lane[e] += v < 0 ? -v : v;
        }
      for (; i < end; ++i) sum += row[i] < 0 ? -i64{row[i]} : row[i];
      for (const std::int32_t s : lane) sum += s;
    }
    if (sum > kFilterSumBound) return false;
  }
  return true;
}

void dw_conv_s16(const std::int16_t* in, i64 in_stride, i64 stride,
                 const std::int16_t* w, i64 k, i64 rows, i64 cols,
                 Fixed16::acc_t bias, bool relu, std::int16_t* out,
                 i64 out_stride) {
  table()->dw_conv_s16(in, in_stride, stride, w, k, rows, cols, bias, relu,
                       out, out_stride);
}

void dw_conv_s16_exact(const std::int16_t* in, i64 in_stride, i64 stride,
                       const std::int16_t* w, i64 k, i64 rows, i64 cols,
                       Fixed16::acc_t bias, bool relu, std::int16_t* out,
                       i64 out_stride) {
  detail::dw_conv_rows(in, in_stride, stride, w, k, rows, cols, bias, relu,
                       out, out_stride);
}

void conv_tile_s16(const ConvTile& t) { table()->conv_tile_s16(t); }

void conv_tile_s16_exact(const ConvTile& t) { detail::conv_tile_rows(t); }

void max_s16(const std::int16_t* x, std::int16_t* inout, i64 n, i64 rows,
             i64 row_stride) {
  table()->max_s16(x, inout, n, rows, row_stride);
}

void add_s16(const std::int16_t* a, const std::int16_t* b, std::int16_t* out,
             i64 n, bool relu) {
  table()->add_s16(a, b, out, n, relu);
}

void lrn_s16(const std::int16_t* in, std::int16_t* out, i64 plane_stride,
             i64 depth, i64 w, i64 half, double alpha_over_n, double bias,
             double* scratch) {
  table()->lrn_s16(in, out, plane_stride, depth, w, half, alpha_over_n, bias,
                   scratch);
}

void axpy_f32(float a, const float* x, float* y, i64 n) {
  table()->axpy_f32(a, x, y, n);
}

}  // namespace cbrain::simd
