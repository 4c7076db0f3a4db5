"""
Auslander algebras of radical-square-zero Nakayama algebras
===========================================================

For the radical-square-zero series, the endomorphism algebra of the sum
of all indecomposables is again Nakayama, with an explicit Kupisch
model gamma.  Its tilting modules biject with the support tau-tilting
pairs of the quotient by the projective-injective vertices, and are
counted by 2^(n-1) (linear) and 2^n (cyclic).
"""

from nakayama import (
    auslander_algebra,
    auslander_family,
    make_rsz_nakayama,
    thm25_map,
    verify_bijection,
    verify_counts,
)

for kind in ("linear", "cyclic"):
    lam = make_rsz_nakayama(3, kind)
    res = auslander_algebra(lam)
    print(f"lambda = {lam}  ->  gamma = {res.gamma}")
    print("  dictionary (gamma vertex -> lambda module):",
          {v: str(m) for v, m in res.dictionary.items()})
    print("  projective-injective vertices:", sorted(res.projinj))

# The bijection sends a tilting module to its largest quotient avoiding
# the projective-injective vertices, paired with the complementary kill set.
res = auslander_algebra(make_rsz_nakayama(3, "linear"))
print(f"\ntilting modules over {res.gamma} and their support-pair images:")
for T in res.tilting:
    pair = thm25_map(res, T)
    killed = ",".join(str(v) for v in sorted(pair.killed))
    print(f"  {T}  ->  ({pair.modules} | killed {killed})")

# One family, linear n = 1..6 then cyclic, feeds both sweeps below; each
# result enumerates its tilting modules once, on first use.
family = auslander_family(6)

# verify_bijection checks injectivity and surjectivity onto the
# independently enumerated support pairs of gamma/(projective-injectives).
for res in family:
    if res.lam.n <= 4:
        rep = verify_bijection(res)
        print(f"bijection {res.lam.kind} n={res.lam.n}: tilt={rep.tilting_count}"
              f" sttilt={rep.sttilt_count} passed={rep.passed}")

# The count sweep doubles with n and carries the shape and minimality checks.
print()
for res in family:
    rep = verify_counts(res)
    print(f"counts {rep.kind} n={rep.n}: {rep.count} (expected {rep.expected})"
          f" shapes={rep.shape_ok} minimal={rep.minimal_ok}")
