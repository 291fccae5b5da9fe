// Runtime-dispatched vectorized modular-arithmetic kernels.
//
// The software analogue of CHAM's data-parallel processing units: where
// the hardware runs 4 butterfly units per constant-geometry NTT core and
// one shift-add reducer per lane (paper Sec. IV, Table I), the CPU
// runtime runs 4 (AVX2) or 8 (AVX-512) 64-bit lanes per instruction.
// Four implementations of the same kernel set coexist — a portable
// scalar baseline, AVX2, AVX-512, and AVX-512-IFMA (52-bit-limb Shoup
// arithmetic on vpmadd52) — and one of them is selected once at startup
// via CPUID (overridable with CHAM_SIMD_LEVEL=scalar|avx2|avx512|
// avx512ifma). Dispatch is a plain function-pointer table, no vtables;
// every vector kernel is bit-exact with the scalar baseline for all
// inputs in its documented domain.
//
// Domain conventions (q is always an odd prime < 2^62):
//   * "reduced" operands are < q, outputs are < q;
//   * Shoup pairs are (w, floor(w·2^64/q)); mul-by-Shoup accepts ANY
//     64-bit x and returns exactly x·w mod q — except at the avx512ifma
//     level with q < kIfmaQBound, where the 52-bit product window
//     narrows the x domain to x < 2^52 (every in-tree call site passes
//     x < 4q < 2^52; for q >= kIfmaQBound the IFMA table runs the
//     double-word two-limb path, which recomposes the exact 64-bit
//     product and keeps the full-range contract);
//   * the Harvey-lazy NTT primitives keep values in [0, 4q) (forward) /
//     [0, 2q) (inverse) exactly like the scalar transform in nt/ntt.cc.
//     The 52-bit path produces lazy representatives that may differ from
//     the 64-bit ones by q (its quotient estimate floor(x·quo52/2^52)
//     can differ by 1), but always agrees modulo q and stays inside the
//     same lazy ranges; kernels_scalar52.h is the bit-exact reference
//     for those intermediates, and every fully-reduced output is
//     bit-exact across all tables.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace cham {
namespace simd {

using u64 = std::uint64_t;

enum class Level : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
  kAvx512Ifma = 3,
};

// The single-word 52-bit-limb path needs every lazy intermediate (< 4q)
// below the vpmadd52 product window (2^52), i.e. q < 2^50. The IFMA
// kernels check q against this bound at runtime and switch to the
// double-word path (two 52-bit limbs per operand, exact 64-bit Shoup
// arithmetic recomposed from paired vpmadd52 half products — see
// kernels_scalar104.h) above it, so the table stays correct for the full
// q < 2^62 domain. CHAM's working moduli (34/34/38 bits) sit far below
// the bound; the base-conversion/rescale special primes sit above it.
inline constexpr u64 kIfmaQBound = 1ULL << 50;

// Single predicate for "this modulus runs on the single-word 52-bit IFMA
// path" — use this instead of spelling q < kIfmaQBound at call sites.
// Kernel-internal; the IFMA table itself routes per call through
// ifma_use52() (which also stamps the simd.ifma.delegated counter), but
// planners/tests asking "which datapath would q take?" go through here.
inline bool ifma_eligible(u64 q) { return q < kIfmaQBound; }

struct Kernels {
  // --- element-wise mod-q ops (operands < q) ---
  void (*add)(const u64* a, const u64* b, u64* out, std::size_t n, u64 q);
  void (*sub)(const u64* a, const u64* b, u64* out, std::size_t n, u64 q);
  void (*negate)(const u64* a, u64* out, std::size_t n, u64 q);

  // --- Shoup pointwise products (per-coefficient operand/quotient) ---
  // out = x ∘ w, fully reduced; supports out aliasing x.
  void (*mul_shoup)(const u64* x, const u64* w_op, const u64* w_quo,
                    u64* out, std::size_t n, u64 q);
  // out += x ∘ w (mod q); out entries must be < q.
  void (*mul_shoup_acc)(const u64* x, const u64* w_op, const u64* w_quo,
                        u64* out, std::size_t n, u64 q);

  // --- Shoup product by one fixed scalar (op, quo) ---
  void (*mul_scalar_shoup)(const u64* x, u64 op, u64 quo, u64* out,
                           std::size_t n, u64 q);
  void (*mul_scalar_shoup_acc)(const u64* x, u64 op, u64 quo, u64* out,
                               std::size_t n, u64 q);

  // --- lazy (b, a) dot product: MultPoly's one-pass MAC ---
  // out_b[i] = Σ_{j<k} xb[j][i]·w[j][i] mod q, out_a[i] likewise with
  // xa[j], for i in [0, n). Every operand is plain (no Shoup quotient)
  // and reduced below q; outputs are fully reduced. Products accumulate
  // unreduced and each output is reduced once; the kernel folds a sum
  // before it can overflow, so any k >= 1 is valid. Outputs must not
  // alias the operands.
  void (*dot2)(const u64* const* xb, const u64* const* xa,
               const u64* const* w, std::size_t k, u64* out_b, u64* out_a,
               std::size_t n, u64 q);

  // --- Harvey-lazy NTT butterfly sweeps (contiguous spans) ---
  // Forward CT radix-2: inputs in [0, 4q);
  //   u = x[j] corrected once by -2q, v = lazy(y[j]·w) in [0, 2q),
  //   x[j] = u + v, y[j] = u + 2q - v  (both < 4q).
  void (*ntt_fwd_bfly)(u64* x, u64* y, std::size_t count, u64 w_op,
                       u64 w_quo, u64 q);
  // Forward fused radix-4 double stage: applies stage (m, t) with twiddle
  // wa and stage (2m, t/2) with twiddles wb0/wb1 while the four
  // coefficients are in registers (the inner loop of nt/ntt.cc's fused
  // passes). Inputs in [0, 4q), outputs in [0, 4q).
  void (*ntt_fwd_dit4)(u64* x0, u64* x1, u64* x2, u64* x3,
                       std::size_t count, u64 wa_op, u64 wa_quo, u64 wb0_op,
                       u64 wb0_quo, u64 wb1_op, u64 wb1_quo, u64 q);
  // Inverse GS radix-2: inputs in [0, 2q);
  //   x[j] = (u + v) corrected once by -2q, y[j] = lazy((u + 2q - v)·w).
  void (*ntt_inv_bfly)(u64* x, u64* y, std::size_t count, u64 w_op,
                       u64 w_quo, u64 q);
  // Inverse last stage fused with the n^{-1} scaling: x[j] = (u+v)·ninv,
  // y[j] = (u + 2q - v)·nw, both fully reduced (< q).
  void (*ntt_inv_last)(u64* x, u64* y, std::size_t count, u64 ninv_op,
                       u64 ninv_quo, u64 nw_op, u64 nw_quo, u64 q);
  // Fused final forward double pass: stage (n/4, t=2) then stage
  // (n/2, t=1), followed by the full correction to [0, q). Block b of
  // four coefficients a[4b..4b+4) uses twiddle wa[b] for the stride-2
  // stage and wb[2b], wb[2b+1] for the stride-1 stage; wa/wb are SoA
  // planes of the bit-reversed root powers offset by n/4 and n/2.
  // Strides here are below the vector width, so the vector backends use
  // in-register lane shuffles instead of scalar fallback. n must be a
  // multiple of 4; inputs in [0, 4q), outputs fully reduced.
  void (*ntt_fwd_tail)(u64* a, std::size_t n, const u64* wa_op,
                       const u64* wa_quo, const u64* wb_op,
                       const u64* wb_quo, u64 q);
  // Fused first two inverse passes: stage t=1 (pair j uses w1[j]) then
  // stage t=2 (quad b uses w2[b]); w1/w2 are the inverse twiddle planes
  // offset by n/2 and n/4. n must be a multiple of 4; inputs and outputs
  // in [0, 2q).
  void (*ntt_inv_tail)(u64* a, std::size_t n, const u64* w1_op,
                       const u64* w1_quo, const u64* w2_op,
                       const u64* w2_quo, u64 q);

  // --- constant-geometry NTT stages (full reduction, nt/cg_ntt.cc) ---
  // One forward stage: for j in [0, half), with w = table[j & mask]:
  //   y = src[j+half]·w mod q, dst[2j] = src[j]+y, dst[2j+1] = src[j]-y.
  // mask+1 is a power of two (the stage's twiddle period).
  void (*cg_fwd_stage)(const u64* src, u64* dst, std::size_t half,
                       const u64* w_op, const u64* w_quo, std::size_t mask,
                       u64 q);
  // One inverse stage: u = src[2j], v = src[2j+1];
  //   dst[j] = u+v mod q, dst[j+half] = (u-v)·table[j & mask] mod q.
  void (*cg_inv_stage)(const u64* src, u64* dst, std::size_t half,
                       const u64* w_op, const u64* w_quo, std::size_t mask,
                       u64 q);

  // --- structural ops ---
  // Gathered signed permutation (Automorph): out[i] = a[src_idx[i]],
  // negated mod q where flip[i] == ~0 (flip entries are 0 or all-ones).
  void (*permute)(const u64* a, const u64* src_idx, const u64* flip,
                  u64* out, std::size_t n, u64 q);
  // Negacyclic reverse (ExtractLWE at index 0 and its LWE->RLWE
  // involution): out[0] = a[0], out[j] = -a[n-j] mod q for j in [1, n).
  // a and out must not alias.
  void (*neg_rev)(const u64* a, u64* out, std::size_t n, u64 q);

  // --- fused divide-and-round by the special modulus (Rescale) ---
  // For each i, with r = xp[i] (< pv) the residue mod the dropped prime:
  //   t    = (r > pv/2) ? pv - r : r, reduced mod q
  //   diff = (r > pv/2) ? xl[i] + t : xl[i] - t   (mod q)
  //   out[i] = diff · p_inv mod q                  (Shoup pair pinv)
  // q_barrett = floor(2^64 / q) drives the in-register reduction of t.
  void (*rescale_round)(const u64* xl, const u64* xp, u64* out,
                        std::size_t n, u64 pv, u64 q, u64 q_barrett,
                        u64 pinv_op, u64 pinv_quo);

  // --- Barrett reduction of arbitrary 64-bit values (digit lifting) ---
  // out[i] = x[i] mod q for ANY 64-bit x[i]; q_barrett = floor(2^64/q).
  // The approximate quotient floor(mulhi(x, q_barrett)) undershoots
  // floor(x/q) by at most 1, so the remainder lands in [0, 2q) and two
  // conditional subtractions fully reduce it. Always runs on the 64-bit
  // mulhi regardless of limb width, so the output is bit-exact across
  // every table. This is the hybrid key-switch decomposition primitive:
  // lifting a base-q residue limb onto every modulus of base_qp.
  void (*barrett_reduce)(const u64* x, u64* out, std::size_t n, u64 q,
                         u64 q_barrett);
};

// The table selected at startup (CPUID best, CHAM_SIMD_LEVEL override).
const Kernels& active();
Level active_level();

// Stable lowercase name ("scalar", "avx2", "avx512", "avx512ifma") —
// recorded in the CHAM-BENCH lines so baselines are never compared
// across levels.
const char* level_name(Level level);
inline const char* level_name() { return level_name(active_level()); }

// Table for one specific level, or nullptr when that backend was not
// compiled in (CHAM_SIMD=OFF / unsupported compiler) or the CPU lacks
// the ISA. Scalar is always available. Benches and the fuzz tests use
// this to pit every compiled backend against the scalar baseline inside
// one process, regardless of the dispatched level.
const Kernels* table_for(Level level);

// True when the running CPU can execute `level` (compile support aside).
bool cpu_supports(Level level);

// Parse a CHAM_SIMD_LEVEL value; returns false on unknown names.
bool parse_level(const char* s, Level* out);

// Resolve an explicit CHAM_SIMD_LEVEL request (`env`, may be null)
// against what this build and CPU can run: returns the level to
// dispatch. An unknown name or a level this CPU/build cannot execute
// falls back to auto-detection; when that happens and `warning` is
// non-null, it receives a one-line explanation (cleared when the request
// was honoured or absent). Pure — reads no process state besides CPUID —
// so tests can exercise the fallback paths without re-execing; dispatch
// applies it once at startup and prints the warning to stderr.
Level resolve_level(const char* env, std::string* warning);

// True when `level` is the IFMA level and NONE of the `count` context
// moduli fits the single-word 52-bit datapath — i.e. the whole context
// will run on the double-word limb path under the `avx512ifma` label.
// Pure companion to resolve_level (which has no modulus knowledge), so
// tests can probe the predicate without touching process state.
bool ifma_context_all_wide(Level level, const u64* moduli,
                           std::size_t count);

// Context-creation hook: when ifma_context_all_wide holds for the
// dispatched level, print a one-line note to stderr (once per process)
// and bump the simd.ifma.wide_context counter, so an all-wide modulus
// chain never runs silently under the avx512ifma label. Returns whether
// this call fired the note.
bool note_ifma_wide_context(const u64* moduli, std::size_t count);

}  // namespace simd
}  // namespace cham
