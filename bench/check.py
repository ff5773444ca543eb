"""Output check: one operation's observation against the recorded reference.

Bounds follow the rule "bit-identical where the arithmetic is unchanged,
within a stated bound otherwise".  Coefficient artifacts are compared byte
for byte and reported, but a difference alone does not fail the operation.

======================  ===============================================
quantity                bound
======================  ===============================================
period                  relative 1e-9
exponents, multipliers  |obs - ref| <= 1e-8 * max(1, |ref|), per entry
Floquet classes         equal
expansion orders        equal (the order that was requested)
manifold residuals      per order, <= max(10 * ref, 1e-11)
solvability and         <= max(10 * ref, 1e-11)
normalization defects
accuracy-domain widths  relative 1e-2, per tolerance
======================  ===============================================
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

PERIOD_REL = 1e-9
SPECTRUM_ABS = 1e-8
DEFECT_FACTOR = 10.0
DEFECT_FLOOR = 1e-11
WIDTH_REL = 1e-2


def load_reference(path=REFERENCE) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["cases"]


def _spectrum(name, obs, ref):
    if len(obs) != len(ref):
        return [f"{name}: {len(obs)} entries, reference has {len(ref)}"]
    out = []
    for j, ((o_re, o_im), (r_re, r_im)) in enumerate(zip(obs, ref)):
        gap = abs(complex(o_re, o_im) - complex(r_re, r_im))
        if not gap <= SPECTRUM_ABS * max(1.0, abs(complex(r_re, r_im))):
            out.append(f"{name}[{j}]: off by {gap:.3e}")
    return out


def _defect(name, obs, ref):
    bound = max(DEFECT_FACTOR * abs(ref), DEFECT_FLOOR)
    return [] if abs(obs) <= bound else [f"{name}: {obs:.3e} exceeds {bound:.3e}"]


def compare(obs: dict, ref: dict) -> tuple[list, bool]:
    """Return (failures, coefficients byte-identical) for one operation."""
    failures = []
    if not abs(obs["period"] - ref["period"]) <= PERIOD_REL * abs(ref["period"]):
        failures.append(f"period: {obs['period']!r} vs reference {ref['period']!r}")
    failures += _spectrum("exponents", obs["exponents"], ref["exponents"])
    failures += _spectrum("multipliers", obs["multipliers"], ref["multipliers"])
    for key in ("classes", "manifold_order", "response_order"):
        if obs[key] != ref[key]:
            failures.append(f"{key}: {obs[key]!r} vs reference {ref[key]!r}")
    if len(obs["manifold_residuals"]) != len(ref["manifold_residuals"]):
        failures.append("manifold_residuals: order count differs from reference")
    else:
        for n, (o, r) in enumerate(zip(obs["manifold_residuals"], ref["manifold_residuals"])):
            failures += _defect(f"manifold_residuals[{n}]", o, r)
    for key in ("solvability_residual", "normalization_defect"):
        failures += _defect(key, obs[key], ref[key])
    if ("domain_min_width" in obs) != ("domain_min_width" in ref):
        failures.append("domain_min_width: present in only one of run and reference")
    elif "domain_min_width" in ref:
        for tol, width in ref["domain_min_width"].items():
            got = obs["domain_min_width"].get(tol)
            if got is None or not abs(got - width) <= WIDTH_REL * abs(width):
                failures.append(f"domain_min_width[{tol}]: {got!r} vs reference {width!r}")
    return failures, obs["coefficients"] == ref["coefficients"]
