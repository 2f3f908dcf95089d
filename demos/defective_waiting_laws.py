"""Waiting laws with mass at infinity and what they do to a renewal count.

A defective waiting law freezes the count after a geometric number of
events: the limiting state law is (1-Q) Q^n no matter the family.  The
demo contrasts the defective geometric and defective Sibuya processes
(fast vs power-law approach to the same limit) and verifies complete
monotonicity for the power-law Bernstein family.
"""

import numpy as np

from renewalk import renewal
from renewalk.laws import (
    DefectiveGeometric,
    DefectiveSibuya,
    PowerLawBernstein,
    dcm_verify,
)

geo = DefectiveGeometric(0.5, 0.7)
sib = DefectiveSibuya(0.5, 0.5)

print("expected number of events, both laws share Q/P = 1:")
print("        t    geometric     sibuya")
geo_mean, _ = renewal.count_moments(geo, 512)
sib_mean, _ = renewal.count_moments(sib, 512)
for t in (1, 4, 16, 64, 256, 512):
    print(f"   {t:>6d}   {geo_mean[t]:9.6f}   {sib_mean[t]:9.6f}")
print("   (geometric saturates exponentially fast; sibuya closes the gap like t^-1/2)")

print()
masses, label = renewal.limit_state_law(geo, n_max=6)
print(f"limit state law ({label}): ", " ".join(f"{v:.4f}" for v in masses))
table = renewal.state_table(geo, 512)
print("state table at t=512:     ", " ".join(f"{v:.4f}" for v in table.probs[:7, -1]))

print()
plb = PowerLawBernstein(0.5, 1.5)
print(f"power-law family: total mass {plb.defect_mass:.6f} = zeta^-gamma")
ok, witness = dcm_verify(plb.pmf_vector(199)[1:], n_max=8)
print(f"discrete complete monotonicity of its pmf up to order 8: {ok}")
ok, witness = dcm_verify(np.arange(50.0), n_max=2)
print(f"counterexample f(t) = t: {ok}, first violation (order, time) = {witness}")
