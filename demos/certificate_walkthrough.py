"""Walk a nonzero matrix to the identity through circ-products.

Given any nonzero X in M_n(F) (char F != 2), there is a short chain

    X = X_0,  X_{k+1} = X_k o Y_k,  X_last = I,

with at most 3 + 6(n-1) steps. The chain is a *certificate*: anyone can
replay it with nothing but the circ product and equality checks. This script
builds one over Q, replays it, then corrupts a step to show that replay
pinpoints the damage.
"""

from jordanmaps import Certificate, Mat, certify_identity, rational_field, replay

Q = rational_field()

x = Mat(Q, [[1, 2], [3, 4]])
print("start X =", x)

cert = certify_identity(x)
print(f"\ncertificate with {len(cert)} steps (bound: {3 + 6 * (x.nrows - 1)}):")
for k, (y, result) in enumerate(cert.steps, start=1):
    print(f"  step {k}: o {y}  ->  {result}")

verdict = replay(cert)
print("\nreplay says:", "valid" if verdict else f"INVALID ({verdict.reason})")

# Now flip one recorded intermediate and replay again.
steps = list(cert.steps)
y, result = steps[3]
steps[3] = (y, result.scale(2))
tampered = Certificate(start=cert.start, steps=tuple(steps))
verdict = replay(tampered)
print("tampered replay:", f"failed at step {verdict.failed_step}: {verdict.reason}")

# The same machinery works over any finite field of odd characteristic.
from jordanmaps import preset_field
from jordanmaps.matrices import random_mat

for name in ("F3", "F5", "F7", "F9"):
    f = preset_field(name)
    worst = 0
    count = 0
    import random

    rng = random.Random(0)
    for _ in range(25):
        m = random_mat(f, 3, rng)
        if m.is_zero:
            continue
        c = certify_identity(m)
        assert replay(c)
        worst = max(worst, len(c))
        count += 1
    print(f"{name}: {count} random 3x3 matrices certified, longest chain {worst}")
