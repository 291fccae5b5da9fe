// Homomorphic operations: addition, plaintext multiplication, rescale by
// the special modulus, monomial multiplication, automorphism with hybrid
// key-switching — exactly the primitive set CHAM's pipeline implements.
#pragma once

#include <memory>
#include <string>

#include "bfv/ciphertext.h"
#include "bfv/evk_manager.h"
#include "bfv/keys.h"

namespace cham {

class Evaluator {
 public:
  explicit Evaluator(BfvContextPtr context);
  // Bind to a named evaluation-key session: key material frozen through
  // this evaluator lives in EvkManager::shared(context, session), so a
  // serving process can hold per-client key caches side by side.
  Evaluator(BfvContextPtr context, const std::string& evk_session);

  const BfvContextPtr& context() const { return ctx_; }

  // --- linear ops (any base, matching domains) ---
  Ciphertext add(const Ciphertext& x, const Ciphertext& y) const;
  Ciphertext sub(const Ciphertext& x, const Ciphertext& y) const;
  void add_inplace(Ciphertext& x, const Ciphertext& y) const;
  void sub_inplace(Ciphertext& x, const Ciphertext& y) const;
  void negate_inplace(Ciphertext& x) const;

  // ct.b += Δ·m (plaintext addition; base-appropriate Δ).
  void add_plain_inplace(Ciphertext& x, const Plaintext& pt) const;

  // Centered lift of a plaintext onto `base`, NTT form — the reusable
  // operand for multiply_plain (HMVP precomputes these for matrix rows).
  RnsPoly transform_plain_ntt(const Plaintext& pt, const RnsBasePtr& base) const;
  // Allocation-free variant: out must be bound to the target base; left
  // in NTT form. pt may be shorter than the ring dimension.
  void transform_plain_ntt_into(const Plaintext& pt, RnsPoly& out) const;

  // x := x ∘ pt (both polys; x must be in NTT form).
  void multiply_plain_ntt_inplace(Ciphertext& x, const RnsPoly& pt_ntt) const;
  // Convenience: coefficient-domain ct times plaintext, returns
  // coefficient-domain result (3 NTTs internally — the DotProduct stage).
  Ciphertext multiply_plain(const Ciphertext& x, const Plaintext& pt) const;

  // Multiply by the small scalar c (mod t): message m -> c·m.
  void multiply_scalar_inplace(Ciphertext& x, u64 c) const;

  // Multiply by the monomial X^s, s in [0, 2N) (ShiftNeg on both polys).
  Ciphertext multiply_monomial(const Ciphertext& x, std::size_t s) const;

  // Rescale from base_qp to base_q: divide-and-round both polynomials by
  // the special modulus (pipeline stage 4).
  Ciphertext rescale(const Ciphertext& x) const;
  // Allocation-free variant: out's polynomials must be bound to base_q.
  void rescale_into(const Ciphertext& x, Ciphertext& out) const;

  // Apply the automorphism X -> X^k and switch back to the original key.
  // Requires a base_q, coefficient-domain ciphertext and gk.has(k).
  Ciphertext apply_galois(const Ciphertext& x, u64 k,
                          const GaloisKeys& gk) const;

  // Galois element 3^r mod 2N rotating batch-encoded rows left by r
  // (square-and-multiply; shared by the encoder and the BSGS planner).
  u64 rotation_galois_element(std::size_t r) const;

  // Rotate batch-encoded slots left by r. Routed through the hoisted
  // pipeline (decompose x.a once, permute the evaluation-form digits),
  // so a fresh-digit rotate_rows and rotate_rows_hoisted over shared
  // digits are bit-exact by construction.
  Ciphertext rotate_rows(const Ciphertext& x, std::size_t r,
                         const GaloisKeys& gk) const;

  // Key-switch the single polynomial c (interpreted as the a-component of
  // a ciphertext under the KSK's source key): returns (b', a') over base_q
  // such that b' + a'·s ≈ c·s~. Coefficient domain in and out.
  std::pair<RnsPoly, RnsPoly> keyswitch_poly(const RnsPoly& c,
                                             const KeySwitchKey& ksk) const;

  // --- hoisted key-switching (the NTT-resident pack tree's primitives) ---

  // The frozen key-switch key type now lives in bfv/evk_manager.h; the
  // alias and the one-shot freeze entry point are kept for callers that
  // want an unmanaged copy (benches comparing freeze cost). Hot paths go
  // through evk().frozen(), which freezes once per key and shares.
  using FrozenKsk = cham::FrozenKsk;
  FrozenKsk freeze_ksk(const KeySwitchKey& ksk) const;

  // Halevi–Shoup-style hoisted decomposition: digit j is the j-th base_q
  // residue limb of c lifted onto every prime of base_qp (SIMD Barrett
  // digit lift) and NTT'd once. The resulting evaluation-form digits are
  // shared between the b and a inner products — the forward NTTs are
  // paid once per node instead of once per product. digits must hold
  // dnum() polynomials bound to base_qp (contents overwritten).
  // Bit-exact with the digit pipeline inside keyswitch_poly. threads > 1
  // runs the per-digit forward NTTs on pool lanes.
  void decompose_ntt_digits(const RnsPoly& c, std::vector<RnsPoly>& digits,
                            int threads = 1) const;

  // --- hoisted rotations (Halevi–Shoup, the BSGS engine's primitives) ---
  //
  // One decomposition of x.a serves many rotations: each rotation permutes
  // the shared evaluation-form digits with the NTT-domain automorph table
  // (a pure slot gather — no transform) and inner-products them against
  // the frozen Galois KSK. Valid because the gadget identity
  // Σ_j g_j·D_j(a) ≡ a (mod Q) is preserved by any ring automorphism φ
  // (the g_j are constants), so Σ_j g_j·φ(D_j(a)) ≡ φ(a) with digit
  // magnitudes — and hence key-switch noise — unchanged.

  // Core: apply the automorphism described by (coeff_table, ntt_table) to
  // x via its precomputed digits and key-switch against fksk. x must be
  // base_q coefficient-domain; digits must be decompose_ntt_digits(x.a).
  Ciphertext rotate_hoisted(const Ciphertext& x,
                            const std::vector<RnsPoly>& digits,
                            const AutomorphTable& coeff_table,
                            const AutomorphTable& ntt_table,
                            const FrozenKsk& fksk) const;

  // Galois-element form: resolves tables and the frozen key through the
  // manager, then runs the core above. Requires gk.has(k).
  Ciphertext apply_galois_hoisted(const Ciphertext& x,
                                  const std::vector<RnsPoly>& digits, u64 k,
                                  const GaloisKeys& gk) const;

  // Slot-rotation form: rotate rows left by r using digits shared with
  // any number of sibling rotations of the same x. Bit-exact with
  // rotate_rows(x, r, gk) for every r (same pipeline, same digits).
  Ciphertext rotate_rows_hoisted(const Ciphertext& x,
                                 const std::vector<RnsPoly>& digits,
                                 std::size_t r, const GaloisKeys& gk) const;

  // The evaluation-key manager shared by every Evaluator on this context
  // (keyed registry, see bfv/evk_manager.h). Automorph tables, monomial
  // twiddles, frozen key-switch keys and pack operand sets all live
  // there; the delegating accessors below are kept for existing callers.
  EvkManager& evk() const { return *evk_; }

  // Automorph routing tables keyed by Galois element (delegates to the
  // shared manager; safe from parallel pool lanes).
  // Coefficient-domain table (gather + sign flips).
  std::shared_ptr<const AutomorphTable> galois_table(u64 k) const;
  // NTT-domain table: the same automorphism as a pure evaluation-slot
  // permutation (make_automorph_table_ntt), letting NTT-resident
  // operands skip the inverse/forward transform pair entirely.
  std::shared_ptr<const AutomorphTable> galois_table_ntt(u64 k) const;

  // Evaluation-form multiplier for X^s over base_qp (delegates to the
  // shared manager; see EvkManager::monomial_ntt_qp).
  std::shared_ptr<const ShoupPoly> monomial_ntt_qp(std::size_t s) const;

 private:
  BfvContextPtr ctx_;
  std::shared_ptr<EvkManager> evk_;
};

}  // namespace cham
