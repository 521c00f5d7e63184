"""Three maps showing each hypothesis of the classification is needed.

1. triangular: on upper-triangular 2x2 matrices (not all of M_2!), squeezing
   onto the diagonal and squaring each entry preserves the circ product yet
   is not additive — so no conjugation form exists. Full-matrix domains
   matter.

2. char2: over F_2 with the diamond product x <> y = xy + yx, the map that
   sends one trace-one matrix A to B and every other matrix to 0 preserves
   products while being neither constant nor additive. Odd characteristic
   matters.

3. block_embedding: X |-> diag(X, P) into M_{2n} preserves products but is
   not surjective-equivalent to any square-size form. The equal-size
   hypothesis matters.

Each bundle carries seeded preservation evidence, from one scan of its map,
plus concrete witness pairs; `verify()` checks that evidence and replays the
witness pairs.
"""

from jordanmaps import all_examples

for bundle in all_examples():
    print(f"== {bundle.name}")
    print("  ", bundle.description)
    ev = bundle.evidence
    print(f"   evidence: {ev.pairs_checked} pairs ({ev.qualifier}), ok={ev.ok}")
    if bundle.non_additivity is not None:
        x, y = bundle.non_additivity
        lhs, rhs = bundle.map(x + y), bundle.map(x) + bundle.map(y)
        print(f"   non-additivity: phi(X+Y) = {lhs}")
        print(f"                   phi(X)+phi(Y) = {rhs}")
    if bundle.non_constancy is not None:
        x, y = bundle.non_constancy
        print(f"   non-constancy: phi at two inputs -> {bundle.map(x)} vs {bundle.map(y)}")
    print("   verify():", bundle.verify())
    print()
