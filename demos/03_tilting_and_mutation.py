"""
Classical tilting modules: enumeration, mutation, exchange graph
================================================================

A tilting module has projective dimension at most 1, no self-extensions,
and as many summands as simples.  Over the Kupisch model gamma below
there are exactly four, forming a square under mutation.
"""

from nakayama import (
    Algebra,
    IndecModule,
    ModuleSet,
    enumerate_tilting,
    exchange_graph,
    exchange_graph_dot,
    is_tilting,
    leq_gen,
    minimal_tilting,
    mutation_at,
    mutation_closure,
    proj_mutation_sequence,
    regular_module,
)

M = IndecModule
gamma = Algebra("linear", (1, 2, 2, 3, 2))

tilting = enumerate_tilting(gamma)
print(f"{len(tilting)} tilting modules over {gamma}:")
for T in tilting:
    shapes = ["P" if gamma.is_projective(m) else "S" for m in T]
    print("  ", T, "  summand shapes:", "".join(shapes))

# A failed candidate comes with a one-line certificate.
bad = ModuleSet.of([M(5, 2), M(4, 3), M(4, 1), M(3, 2), M(1, 1)])
ok, why = is_tilting(gamma, bad)
print("\ncandidate", bad, "->", ok, "because", why)

# Mutation exchanges one summand for the unique alternative complement.
T1 = regular_module(gamma)
print("\nmutating the regular module", T1)
for x in T1:
    res = mutation_at(gamma, T1, x)
    print(f"  at {x}: {'no partner' if res is None else res}")

# At a projective non-injective summand the exchange is forced by the
# injective envelope sequence 0 -> P -> I(soc P) -> S -> 0.
seq = proj_mutation_sequence(gamma, T1, M(3, 2))
print(f"\n0 -> {seq.removed} -> {seq.envelope} -> {seq.cokernel} -> 0"
      f"  mutated: {seq.mutated}")

# The Gen order has a unique minimum: I0 plus the cosyzygies of the
# projectives.  The closure under mutation recovers the full list.
mini = minimal_tilting(gamma)
print("\nminimal tilting module:", mini)
print("below all others:", all(leq_gen(gamma, mini, T) for T in tilting))
print("mutation closure matches enumeration:", mutation_closure(gamma) == tilting)

# The exchange graph in DOT: solid edges are exchanges, dashed arrows
# point from Gen-larger to the tilting module they cover.
print("\n" + exchange_graph_dot(exchange_graph(gamma)))
