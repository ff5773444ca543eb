"""The oracle with a linear fast block: a family of models with closed forms.

    (x, y)' = the oracle field (:func:`slowphase.models.make_oracle_model`)
    (p, q)' = B (p, q),    B = [[a, -omega], [omega, b]]

The block is decoupled from the oracle and vanishes on the cycle, so for
every B with eigenvalues of negative real part below -2:

- the cycle is the oracle's unit circle in (x, y) with p = q = 0, of
  period 2 pi, and its slow exponent is lam_s = -2;
- the fast exponents are the eigenvalues of B modulo the lattice i Z (the
  lattice i (2 pi / T) Z at T = 2 pi);
- the (p, q) components of K, Z and I are zero at every order, and their
  (x, y) components are the oracle's.

So one factory gives exact answers for complex pairs (a = b, omega != 0),
resonances (omega = 0 and a or b = n lam_s, or mixed, a + lam_s = b),
repeated and negative multipliers.  ``model.params.a``, ``.b`` and
``.omega`` set B; the ``oracle_block`` fixture of ``conftest.py`` registers
the factory under that model name.
"""

from slowphase import models
from slowphase.errors import ConfigError

GUESS = (1.3, 0.0, 0.2, -0.1)
DEFAULTS = {"a": -3.0, "b": -3.0, "omega": 0.3}


def make_oracle_block(overrides: dict) -> models.VectorFieldModel:
    """The model at ``overrides`` of :data:`DEFAULTS`."""
    unknown = set(overrides) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown oracle_block parameters: {sorted(unknown)}")
    params = {**DEFAULTS, **overrides}
    a, b, omega = params["a"], params["b"], params["omega"]
    oracle = models.make_oracle_model()

    def rhs(u):
        x, y, p, q = u
        return (*oracle.rhs((x, y)), a * p - omega * q, omega * p + b * q)

    def jac_rows(u):
        (xx, xy), (yx, yy) = oracle.jac_rows(u[:2])
        return (
            (xx, xy, 0.0, 0.0),
            (yx, yy, 0.0, 0.0),
            (0.0, 0.0, a, -omega),
            (0.0, 0.0, omega, b),
        )

    return models.VectorFieldModel(
        name="oracle_block", dim=4, params=params,
        state_names=("x", "y", "p", "q"), rhs=rhs, jac_rows=jac_rows,
    )
