#include "simd/kernels_scalar.h"

#include "simd/tables.h"

namespace cham {
namespace simd {
namespace scalar {

namespace {

using u128 = unsigned __int128;

}  // namespace

void add(const u64* a, const u64* b, u64* out, std::size_t n, u64 q) {
  for (std::size_t i = 0; i < n; ++i) {
    const u64 s = a[i] + b[i];
    out[i] = s >= q ? s - q : s;
  }
}

void sub(const u64* a, const u64* b, u64* out, std::size_t n, u64 q) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = a[i] >= b[i] ? a[i] - b[i] : a[i] + q - b[i];
  }
}

void negate(const u64* a, u64* out, std::size_t n, u64 q) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = a[i] == 0 ? 0 : q - a[i];
  }
}

void mul_shoup(const u64* x, const u64* w_op, const u64* w_quo, u64* out,
               std::size_t n, u64 q) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = shoup_mul(x[i], w_op[i], w_quo[i], q);
  }
}

void mul_shoup_acc(const u64* x, const u64* w_op, const u64* w_quo,
                   u64* out, std::size_t n, u64 q) {
  for (std::size_t i = 0; i < n; ++i) {
    const u64 r = shoup_mul(x[i], w_op[i], w_quo[i], q);
    const u64 s = out[i] + r;
    out[i] = s >= q ? s - q : s;
  }
}

void mul_scalar_shoup(const u64* x, u64 op, u64 quo, u64* out,
                      std::size_t n, u64 q) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = shoup_mul(x[i], op, quo, q);
  }
}

void mul_scalar_shoup_acc(const u64* x, u64 op, u64 quo, u64* out,
                          std::size_t n, u64 q) {
  for (std::size_t i = 0; i < n; ++i) {
    const u64 r = shoup_mul(x[i], op, quo, q);
    const u64 s = out[i] + r;
    out[i] = s >= q ? s - q : s;
  }
}

void dot2(const u64* const* xb, const u64* const* xa, const u64* const* w,
          std::size_t k, u64* out_b, u64* out_a, std::size_t n, u64 q) {
  const DotReducer red(q);
  for (std::size_t i = 0; i < n; ++i) red.at(xb, xa, w, k, i, out_b, out_a);
}

void ntt_fwd_bfly(u64* x, u64* y, std::size_t count, u64 w_op, u64 w_quo,
                  u64 q) {
  const u64 two_q = q << 1;
  for (std::size_t j = 0; j < count; ++j) {
    u64 u = x[j];
    u = u >= two_q ? u - two_q : u;
    const u64 v = shoup_mul_lazy(y[j], w_op, w_quo, q);
    x[j] = u + v;
    y[j] = u + two_q - v;
  }
}

void ntt_fwd_dit4(u64* x0, u64* x1, u64* x2, u64* x3, std::size_t count,
                  u64 wa_op, u64 wa_quo, u64 wb0_op, u64 wb0_quo,
                  u64 wb1_op, u64 wb1_quo, u64 q) {
  const u64 two_q = q << 1;
  for (std::size_t j = 0; j < count; ++j) {
    u64 a0 = x0[j];
    u64 a1 = x1[j];
    a0 = a0 >= two_q ? a0 - two_q : a0;
    a1 = a1 >= two_q ? a1 - two_q : a1;
    const u64 m2 = shoup_mul_lazy(x2[j], wa_op, wa_quo, q);
    const u64 m3 = shoup_mul_lazy(x3[j], wa_op, wa_quo, q);
    u64 b0 = a0 + m2;
    const u64 b1 = a1 + m3;
    u64 b2 = a0 + two_q - m2;
    const u64 b3 = a1 + two_q - m3;
    b0 = b0 >= two_q ? b0 - two_q : b0;
    b2 = b2 >= two_q ? b2 - two_q : b2;
    const u64 c1 = shoup_mul_lazy(b1, wb0_op, wb0_quo, q);
    const u64 c3 = shoup_mul_lazy(b3, wb1_op, wb1_quo, q);
    x0[j] = b0 + c1;
    x1[j] = b0 + two_q - c1;
    x2[j] = b2 + c3;
    x3[j] = b2 + two_q - c3;
  }
}

void ntt_inv_bfly(u64* x, u64* y, std::size_t count, u64 w_op, u64 w_quo,
                  u64 q) {
  const u64 two_q = q << 1;
  for (std::size_t j = 0; j < count; ++j) {
    const u64 u = x[j];
    const u64 v = y[j];
    u64 s = u + v;
    s = s >= two_q ? s - two_q : s;
    x[j] = s;
    y[j] = shoup_mul_lazy(u + two_q - v, w_op, w_quo, q);
  }
}

void ntt_inv_last(u64* x, u64* y, std::size_t count, u64 ninv_op,
                  u64 ninv_quo, u64 nw_op, u64 nw_quo, u64 q) {
  const u64 two_q = q << 1;
  for (std::size_t j = 0; j < count; ++j) {
    const u64 u = x[j];
    const u64 v = y[j];
    x[j] = shoup_mul(u + v, ninv_op, ninv_quo, q);
    y[j] = shoup_mul(u + two_q - v, nw_op, nw_quo, q);
  }
}

void ntt_fwd_tail(u64* a, std::size_t n, const u64* wa_op,
                  const u64* wa_quo, const u64* wb_op, const u64* wb_quo,
                  u64 q) {
  const u64 two_q = q << 1;
  for (std::size_t i = 0; i < n / 4; ++i) {
    u64* x = a + 4 * i;
    u64 a0 = x[0];
    u64 a1 = x[1];
    a0 = a0 >= two_q ? a0 - two_q : a0;
    a1 = a1 >= two_q ? a1 - two_q : a1;
    const u64 m2 = shoup_mul_lazy(x[2], wa_op[i], wa_quo[i], q);
    const u64 m3 = shoup_mul_lazy(x[3], wa_op[i], wa_quo[i], q);
    u64 b0 = a0 + m2;
    const u64 b1 = a1 + m3;
    u64 b2 = a0 + two_q - m2;
    const u64 b3 = a1 + two_q - m3;
    b0 = b0 >= two_q ? b0 - two_q : b0;
    b2 = b2 >= two_q ? b2 - two_q : b2;
    const u64 c1 = shoup_mul_lazy(b1, wb_op[2 * i], wb_quo[2 * i], q);
    const u64 c3 = shoup_mul_lazy(b3, wb_op[2 * i + 1], wb_quo[2 * i + 1], q);
    u64 o0 = b0 + c1;
    u64 o1 = b0 + two_q - c1;
    u64 o2 = b2 + c3;
    u64 o3 = b2 + two_q - c3;
    o0 = o0 >= two_q ? o0 - two_q : o0;
    o1 = o1 >= two_q ? o1 - two_q : o1;
    o2 = o2 >= two_q ? o2 - two_q : o2;
    o3 = o3 >= two_q ? o3 - two_q : o3;
    o0 = o0 >= q ? o0 - q : o0;
    o1 = o1 >= q ? o1 - q : o1;
    o2 = o2 >= q ? o2 - q : o2;
    o3 = o3 >= q ? o3 - q : o3;
    x[0] = o0;
    x[1] = o1;
    x[2] = o2;
    x[3] = o3;
  }
}

void ntt_inv_tail(u64* a, std::size_t n, const u64* w1_op,
                  const u64* w1_quo, const u64* w2_op, const u64* w2_quo,
                  u64 q) {
  const u64 two_q = q << 1;
  // Stage t == 1: adjacent pairs.
  for (std::size_t i = 0; i < n / 2; ++i) {
    u64* x = a + 2 * i;
    const u64 u = x[0];
    const u64 v = x[1];
    u64 s = u + v;
    s = s >= two_q ? s - two_q : s;
    x[0] = s;
    x[1] = shoup_mul_lazy(u + two_q - v, w1_op[i], w1_quo[i], q);
  }
  // Stage t == 2: pairs at stride 2 within each quad.
  for (std::size_t i = 0; i < n / 4; ++i) {
    u64* x = a + 4 * i;
    const u64 u0 = x[0];
    const u64 u1 = x[1];
    const u64 v0 = x[2];
    const u64 v1 = x[3];
    u64 s0 = u0 + v0;
    u64 s1 = u1 + v1;
    s0 = s0 >= two_q ? s0 - two_q : s0;
    s1 = s1 >= two_q ? s1 - two_q : s1;
    x[0] = s0;
    x[1] = s1;
    x[2] = shoup_mul_lazy(u0 + two_q - v0, w2_op[i], w2_quo[i], q);
    x[3] = shoup_mul_lazy(u1 + two_q - v1, w2_op[i], w2_quo[i], q);
  }
}

void cg_fwd_stage(const u64* src, u64* dst, std::size_t half,
                  const u64* w_op, const u64* w_quo, std::size_t mask,
                  u64 q) {
  for (std::size_t j = 0; j < half; ++j) {
    const std::size_t w = j & mask;
    const u64 x = src[j];
    const u64 y = shoup_mul(src[j + half], w_op[w], w_quo[w], q);
    const u64 sum = x + y;
    dst[2 * j] = sum >= q ? sum - q : sum;
    dst[2 * j + 1] = x >= y ? x - y : x + q - y;
  }
}

void cg_inv_stage(const u64* src, u64* dst, std::size_t half,
                  const u64* w_op, const u64* w_quo, std::size_t mask,
                  u64 q) {
  for (std::size_t j = 0; j < half; ++j) {
    const std::size_t w = j & mask;
    const u64 u = src[2 * j];
    const u64 v = src[2 * j + 1];
    const u64 sum = u + v;
    dst[j] = sum >= q ? sum - q : sum;
    dst[j + half] = shoup_mul(u + q - v, w_op[w], w_quo[w], q);
  }
}

void permute(const u64* a, const u64* src_idx, const u64* flip, u64* out,
             std::size_t n, u64 q) {
  for (std::size_t i = 0; i < n; ++i) {
    const u64 v = a[src_idx[i]];
    out[i] = flip[i] ? (v == 0 ? 0 : q - v) : v;
  }
}

void neg_rev(const u64* a, u64* out, std::size_t n, u64 q) {
  out[0] = a[0];
  for (std::size_t j = 1; j < n; ++j) {
    const u64 v = a[n - j];
    out[j] = v == 0 ? 0 : q - v;
  }
}

void rescale_round(const u64* xl, const u64* xp, u64* out, std::size_t n,
                   u64 pv, u64 q, u64 q_barrett, u64 pinv_op, u64 pinv_quo) {
  const u64 half = pv >> 1;
  for (std::size_t i = 0; i < n; ++i) {
    const u64 r = xp[i];
    const bool up = r > half;
    u64 t = up ? pv - r : r;
    // t mod q via the precomputed floor(2^64/q): the approximate quotient
    // undershoots by < 2, so two conditional subtractions fully reduce.
    const u64 qhat = static_cast<u64>((static_cast<u128>(t) * q_barrett) >> 64);
    t -= qhat * q;
    if (t >= q) t -= q;
    if (t >= q) t -= q;
    u64 diff;
    if (up) {
      const u64 s = xl[i] + t;
      diff = s >= q ? s - q : s;
    } else {
      diff = xl[i] >= t ? xl[i] - t : xl[i] + q - t;
    }
    out[i] = shoup_mul(diff, pinv_op, pinv_quo, q);
  }
}

void barrett_reduce(const u64* x, u64* out, std::size_t n, u64 q,
                    u64 q_barrett) {
  for (std::size_t i = 0; i < n; ++i) {
    u64 t = x[i];
    // floor(t·floor(2^64/q)/2^64) undershoots floor(t/q) by < 2, so two
    // conditional subtractions fully reduce (same step as rescale_round).
    const u64 qhat = static_cast<u64>((static_cast<u128>(t) * q_barrett) >> 64);
    t -= qhat * q;
    if (t >= q) t -= q;
    if (t >= q) t -= q;
    out[i] = t;
  }
}

}  // namespace scalar

const Kernels* scalar_table() {
  static const Kernels table = {
      scalar::add,
      scalar::sub,
      scalar::negate,
      scalar::mul_shoup,
      scalar::mul_shoup_acc,
      scalar::mul_scalar_shoup,
      scalar::mul_scalar_shoup_acc,
      scalar::dot2,
      scalar::ntt_fwd_bfly,
      scalar::ntt_fwd_dit4,
      scalar::ntt_inv_bfly,
      scalar::ntt_inv_last,
      scalar::ntt_fwd_tail,
      scalar::ntt_inv_tail,
      scalar::cg_fwd_stage,
      scalar::cg_inv_stage,
      scalar::permute,
      scalar::neg_rev,
      scalar::rescale_round,
      scalar::barrett_reduce,
  };
  return &table;
}

}  // namespace simd
}  // namespace cham
