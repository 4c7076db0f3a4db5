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
    enumerate_tilting,
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
for T in enumerate_tilting(res.gamma):
    pair = thm25_map(res, T)
    killed = ",".join(str(v) for v in sorted(pair.killed))
    print(f"  {T}  ->  ({pair.modules} | killed {killed})")

# verify_bijection checks injectivity and surjectivity onto the
# independently enumerated support pairs of gamma/(projective-injectives).
for kind in ("linear", "cyclic"):
    for n in (1, 2, 3, 4):
        rep = verify_bijection(auslander_algebra(make_rsz_nakayama(n, kind)))
        print(f"bijection {kind} n={n}: tilt={rep.tilting_count}"
              f" sttilt={rep.sttilt_count} passed={rep.passed}")

# The count sweep doubles with n and carries the shape and minimality checks.
print()
for kind in ("linear", "cyclic"):
    for n in range(1, 7):
        rep = verify_counts(n, kind)
        print(f"counts {kind} n={n}: {rep.count} (expected {rep.expected})"
              f" shapes={rep.shape_ok} minimal={rep.minimal_ok}")
