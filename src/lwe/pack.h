// LWE -> RLWE packing (paper Algs. 2 & 3, after Chen et al.).
//
// pack_lwes combines 2^K LWE ciphertexts into one RLWE ciphertext whose
// plaintext holds 2^K · m_i at coefficient i · (N / 2^K). The 2^K factor
// is inherent to the trace-style doubling; callers fold (2^K)^{-1} mod t
// into their plaintext encoding (see hmvp/).
//
// Each merge level l (producing packs of 2^l) multiplies the odd pack by
// the monomial X^{N/2^l} and applies the automorphism X -> X^{2^l + 1}:
// with stride s = N/2^l, the element k = 2^l+1 satisfies k·s ≡ s + N
// (mod 2N), so the automorphism fixes even multiples of s and negates odd
// ones — giving the even/odd cancellation of the reduction tree. (The
// paper's Alg. 2 prints the exponent as "2l+1"; 2^l + 1 is the element
// that makes the tree correct, and our tests verify the round trip.)
//
// Two tree implementations live here:
//
//   pack_lwes / pack_nodes
//                       The NTT-resident tree. The b polynomial of every
//                       node stays in the evaluation domain over base_qp
//                       for the whole tree, scaled by the special prime p
//                       (lazy mod-down): monomial multiplication is a
//                       cached pointwise twiddle product, the Galois map
//                       is a pure slot permutation, and the raw b-side
//                       key-switch accumulator folds straight into the
//                       node without a per-merge rescale. Only the a
//                       polynomial is rounded back to base_q each merge —
//                       the next level's digit decomposition needs it —
//                       so a merge costs 16 limb NTTs instead of the
//                       reference tree's 20, with Shoup-frozen key-switch
//                       keys replacing scalar Barrett inner products.
//                       The a output is bit-exact with the reference; b
//                       differs by the deferred rounding terms, i.e. by
//                       at most one unit of p per merge level — far below
//                       the encryption noise (tests assert the budget).
//                       One tree, two entry points: pack_lwes seeds one
//                       node per LWE and merges from level 1; pack_nodes
//                       takes nodes that already hold packs of
//                       2^{from_level-1} and merges from `from_level` up.
//                       HMVP (hmvp/) builds its nodes without any LWE: the
//                       bottom levels of the tree commute with the row
//                       products, so it enters at level L+1 (DESIGN.md).
//
//   pack_lwes_reference The coefficient-domain tree (one pack_two_lwes
//                       per merge), kept as the semantic baseline for
//                       equivalence tests and before/after benchmarks.
#pragma once

#include <memory>
#include <vector>

#include "bfv/evaluator.h"
#include "lwe/lwe.h"

namespace cham {

// Alg. 2. `level_log` = l: inputs are packs of 2^{l-1} LWEs each; output
// packs 2^l. Requires gk.has(2^l + 1). Coefficient-domain path.
Ciphertext pack_two_lwes(const Evaluator& eval, int level_log,
                         const Ciphertext& ct_even, const Ciphertext& ct_odd,
                         const GaloisKeys& gk);

// The per-level operand set of the NTT-resident tree (struct PackKeys)
// now lives in bfv/evk_manager.h: the evaluation-key manager owns one
// set per GaloisKeys and shares it across every pack_lwes call, HMVP
// run and session — the per-level KSK freeze is paid exactly once per
// key instead of once per run. This thin wrapper remains for callers
// holding an Evaluator; requires gk.has(2^l + 1) for every l in
// [1, max_level_log].
std::shared_ptr<const PackKeys> make_pack_keys(const Evaluator& eval,
                                               const GaloisKeys& gk,
                                               int max_level_log);

// One node of the NTT-resident tree: an RLWE ciphertext whose b stays in
// the evaluation domain over base_qp for the whole tree, scaled by the
// special prime p (phase p·(b + a·s) up to rounding): seeds contribute
// p·b exactly, and each merge folds the raw b-side key-switch
// accumulator in. The single divide-and-round by p at the root recovers
// b plus the deferred rounding terms (|error| < #merges, far below the
// ciphertext noise). a returns to base_q coefficient form every merge —
// the next level's digit decomposition reads its residue limbs.
struct PackNode {
  RnsPoly b_qp;  // base_qp, evaluation domain, p-scaled
  RnsPoly a_q;   // base_q, coefficient domain
};

// Alg. 3, NTT-resident tree. lwes.size() must be a power of two <= N.
// Returns the packed RLWE ciphertext (base_q, coefficient domain). The
// binary reduction tree is walked level by level; all merges within a
// level are independent and run on up to `threads` pool lanes with
// per-lane scratch arenas (mirroring the paper's multiple PackTwoLWEs
// units, pipeline stages 5–9). The tree shape — and therefore the result
// — is bit-identical for every thread count. keys must cover levels up
// to log2(lwes.size()). Equivalent to seeding one PackNode per LWE and
// calling pack_nodes(·, 1, ·).
Ciphertext pack_lwes(const Evaluator& eval,
                     const std::vector<LweCiphertext>& lwes,
                     const PackKeys& keys, int threads = 1);

// The same tree entered at level `from_level` >= 1: nodes[o] holds a pack
// of 2^{from_level-1} values at stride N/2^{from_level-1}, and node o
// merges with node o + nodes.size()/2 at level from_level, exactly as
// the full tree merges its subtrees. nodes.size() must be a power of two
// with nodes.size()·2^{from_level-1} <= N; keys must cover levels up to
// from_level - 1 + log2(nodes.size()) (a single node needs none). The
// nodes are consumed: they hold intermediate values afterwards and the
// root's a_q is moved into the result. Returns the packed ciphertext
// (base_q, coefficient domain), bit-identical for every thread count.
Ciphertext pack_nodes(const Evaluator& eval, std::vector<PackNode>& nodes,
                      int from_level, const PackKeys& keys, int threads = 1);

// Convenience overload: fetches the PackKeys from the evaluation-key
// manager (built on first use per GaloisKeys, then shared), so repeated
// packs pay no per-call key work.
Ciphertext pack_lwes(const Evaluator& eval,
                     const std::vector<LweCiphertext>& lwes,
                     const GaloisKeys& gk, int threads = 1);

// The coefficient-domain reference tree (the pre-NTT-resident
// implementation, bit for bit). Semantically equivalent to pack_lwes up
// to the deferred mod-down rounding noise; used by equivalence tests and
// the bench_pack before/after comparison.
Ciphertext pack_lwes_reference(const Evaluator& eval,
                               const std::vector<LweCiphertext>& lwes,
                               const GaloisKeys& gk, int threads = 1);

// Statistics of the last pack_lwes call are intentionally not kept here;
// the accelerator model (src/sim) accounts for the reduction tree itself.

}  // namespace cham
