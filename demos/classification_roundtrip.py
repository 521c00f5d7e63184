"""Plant a conjugation map, recover its canonical form, serialize both.

Every Jordan multiplicative map M_n(F) -> M_n(F) (n >= 2, char != 2) is the
zero map, a constant idempotent, or

    X |-> T w(X) T^-1        or        X |-> T w(X)^t T^-1

with T invertible and w a field endomorphism applied entrywise. Here we plant
the twisted-and-transposed kind over F_9, where w can be the Frobenius cube,
and check the classifier finds exactly the planted data.
"""

import random

from jordanmaps import (
    CanonicalForm,
    JordanMap,
    Mat,
    RingEndo,
    classify_with_report,
    preset_field,
)
from jordanmaps.serialization import dumps, form_from_json, form_to_json

f9 = preset_field("F9")

t = Mat(f9, [[1, 2], [1, 1]])
frob = RingEndo(f9, 1)
phi = JordanMap.conjugation(t, endo=frob, transpose=True)
planted = CanonicalForm.conjugation_form(t, omega=frob, transpose=True)
print("planted:", planted.describe())

form, report = classify_with_report(phi)
print("recovered:", form.describe())
print("pipeline stages:", " -> ".join(report["stages"]))
print("pairs checked:", report["pairs_checked"])
print("equivalent to planted:", form == planted)

# Any scalar multiple of T conjugates identically, so every form scales T to
# first nonzero entry 1: the recovered form equals the planted one, and it
# denotes the same map:
rng = random.Random(1)
for _ in range(50):
    x = phi.sample_domain(rng)
    assert form.evaluate(x) == phi(x)
print("recovered form agrees with the map on 50 random inputs")

# Canonical forms serialize to plain JSON and come back intact.
blob = dumps(form_to_json(form))
back = form_from_json(form_to_json(form))
print("\nJSON size:", len(blob), "bytes; roundtrip equivalent:",
      back == form)

# Constants and zero get their own variants.
p = Mat(f9, [[1, 0], [0, 0]])
const_form = classify_with_report(JordanMap.constant(f9, 2, p))[0]
zero_form = classify_with_report(JordanMap.zero(f9, 2))[0]
print("\nconstant map ->", const_form.describe())
print("zero map     ->", zero_form.describe())
