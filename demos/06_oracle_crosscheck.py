"""
Matrix oracle cross-check
=========================

Every closed form in the library (hom, ext1, syzygy, tau) can be
recomputed from honest quiver representations over exact rationals:
intertwiner nullspaces for Hom, projective covers for Ext and syzygies,
and the transpose-then-dualize construction for tau.  This demo sweeps
a small exhaustive universe and rebuilds one Auslander Kupisch model
from the Hom bases between its indecomposables.
"""

import itertools

from nakayama import (
    auslander_algebra,
    end_algebra,
    ext1_dim,
    ext1_space_dim,
    hom_dim,
    hom_space_dim,
    iter_algebras,
    make_rsz_nakayama,
    quiver_of,
    syzygy,
    syzygy_oracle,
    tau,
    tau_via_dtr,
)

# Exhaustive agreement sweep over all Kupisch series with <= 4 vertices
# and entries <= 3 (the acceptance suite pushes this to N <= 6, <= 4).
algebras = pairs = 0
for A in iter_algebras(4, 3):
    algebras += 1
    indecs = list(A.indecomposables())
    for m in indecs:
        assert syzygy_oracle(A, m) == syzygy(A, m)
        assert tau_via_dtr(A, m) == tau(A, m)
    for m, n in itertools.product(indecs, repeat=2):
        pairs += 1
        assert hom_space_dim(A, m, n) == hom_dim(A, m, n)
        assert ext1_space_dim(A, m, n) == ext1_dim(A, m, n)
print(f"closed forms match the oracle on {algebras} algebras"
      f" / {pairs} ordered pairs")

# The Kupisch model of an Auslander algebra, recovered from matrices:
# compose the radical maps of End(sum of all indecomposables) and read
# off the quiver from rad/rad^2.
lam = make_rsz_nakayama(2, "cyclic")
res = auslander_algebra(lam)
objects = [res.dictionary[v] for v in res.gamma.vertices]
table = end_algebra(lam, objects)
data = quiver_of(table)
print(f"\nEnd over {lam}: total dimension {data.total_dim}"
      f" (model says {res.gamma.dimension()})")
print("arrows from rad/rad^2:", data.arrow_counts)
model = {(v, res.gamma.down(v)): 1
         for v in res.gamma.vertices if res.gamma.kupisch(v) >= 2}
print("model arrows:        ", model)
print("hom blocks match path counts:",
      all(data.block_dims[(a, b)] == res.gamma.path_count(b, a)
          for a in res.gamma.vertices for b in res.gamma.vertices))
