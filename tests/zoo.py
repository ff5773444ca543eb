"""Small test models with known outcomes, each written as its field alone.

Every model derives its Jacobian from the field's tape, so a factory here
states one closure.  ``tests/oracle_block.py`` holds the oracle with a
linear fast block, a family of its own.
"""

from slowphase import models


def make_flat_model() -> models.VectorFieldModel:
    """The oracle circle in (x, y) beside x0' = -y^3: component 0 of the
    orbit peaks flat, so its crossings of X_0 = 0 are no simple maxima."""

    def rhs(u):
        x0, x, y = u
        r2 = x * x + y * y
        return (-(y * y * y), x - y - r2 * x, x + y - r2 * y)

    return models.VectorFieldModel("flat", 3, {}, ("x0", "x", "y"), rhs)


def make_twomax_model(b=0.3) -> models.VectorFieldModel:
    """State (w, x, y): w' = -3 (w - 2 x y - b x) driven by the oracle circle
    in (x, y), so w has two unequal maxima per period (b = 0: two equal ones,
    a half-period symmetry)."""

    def rhs(u):
        w, x, y = u
        r2 = x * x + y * y
        return (-3.0 * (w - 2.0 * x * y - b * x), x - y - r2 * x, x + y - r2 * y)

    return models.VectorFieldModel("twomax", 3, {"b": b}, ("w", "x", "y"), rhs)


def make_reversed_oracle(overrides=None) -> models.VectorFieldModel:
    """The oracle with time reversed: the unit circle repels."""

    def rhs(u):
        x, y = u
        r2 = x * x + y * y
        return (-(x - y - r2 * x), -(x + y - r2 * y))

    return models.VectorFieldModel("reversed", 2, {}, ("x", "y"), rhs)


def make_stiff_oracle() -> models.VectorFieldModel:
    """The oracle with its radial rate times 5: the nontrivial multiplier
    e^{-20 pi} ~ 5e-28 sits far below the monodromy's roundoff."""

    def rhs(u):
        x, y = u
        s = 5.0 * (1.0 - (x * x + y * y))
        return (s * x - y, s * y + x)

    return models.VectorFieldModel(
        name="stiff_oracle", dim=2, params={}, state_names=("x", "y"), rhs=rhs,
    )


def make_van_der_pol(overrides) -> models.VectorFieldModel:
    """x'' - mu (1 - x^2) x' + x = 0 as (x, x'); mu defaults to 1."""
    mu = float(overrides.get("mu", 1.0))

    def rhs(u):
        x, v = u
        return (v, mu * (1.0 - x * x) * v - x)

    return models.VectorFieldModel(
        name="vdp", dim=2, params={"mu": mu}, state_names=("x", "v"), rhs=rhs,
    )
