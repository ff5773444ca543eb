"""Run configuration: flat dotted-key text format with env overrides.

Grammar (one assignment per line)::

    # comment
    model.name = ei
    model.params.eta_e = -5.0
    cycle.guess = 0.05, -0.5, 0.5, 0.05, -0.5, 0.5
    integrator.rtol = 1e-12
    manifold.order = 9

Each key is declared once, in the ordered table ``KEYS``: its ``RunConfig``
field (``integrator.<name>`` for an ``IntegratorSettings`` field, which
checks itself), its parser, and the check its value must pass.  Parsing,
``RunConfig.validate`` and ``RunConfig.echo_text`` are loops over the table,
so a config built in Python is checked exactly like a parsed one.
``model.params.<name>`` sets a model parameter.

Environment variables override file keys: ``SLOWPHASE_`` followed by the key
with dots replaced by double underscores, e.g.
``SLOWPHASE_integrator__rtol=1e-10``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError
from .integrate import IntegratorSettings

__all__ = ["RunConfig", "KEYS", "parse_config_text", "build_run_config", "load_config"]

ENV_PREFIX = "SLOWPHASE_"
PARAMS_PREFIX = "model.params."

DEFAULT_GUESSES = {
    "oracle": (1.3, 0.0),
    "ei": (0.05, -0.5, 0.5, 0.05, -0.5, 0.5),
}


class Key(NamedTuple):
    name: str  # dotted config key
    field: str  # RunConfig field, or "integrator.<IntegratorSettings field>"
    parse: Callable[[str], object]  # raises ValueError on bad text
    check: Callable[[object], bool] | None  # None: any parsed value is valid
    rule: str  # what a valid value is, for error messages
    auto: bool = False  # "auto" parses to None: derived from other keys


def _floats(text: str) -> tuple:
    return tuple(float(part) for part in text.split(","))


def _descending(text: str) -> tuple:
    # accuracy_domain sorts its tolerances too; this keeps the echo canonical
    return tuple(sorted(_floats(text), reverse=True))


def _positive(value) -> bool:
    return value > 0  # NaN fails too


def _at_least(bound: int) -> Callable[[object], bool]:
    return lambda value: value >= bound


KEYS = (
    Key("model.name", "model", str, None, "a model name"),
    Key("integrator.rtol", "integrator.rtol", float, None, "a number > 0"),
    Key("integrator.atol", "integrator.atol", float, None, "a number > 0"),
    Key("integrator.max_steps", "integrator.max_steps", int, None, "an integer >= 1"),
    Key("cycle.guess", "guess", _floats, None, "comma-separated numbers"),
    Key("cycle.relax_time", "relax_time", float,
        lambda v: 0 <= v < math.inf, "a finite number >= 0"),
    Key("cycle.newton_tol", "newton_tol", float, _positive, "a number > 0"),
    Key("cycle.grid_N", "grid_size", int,
        lambda n: n >= 2 and (n & (n - 1)) == 0, "a power of two"),
    Key("resonance.order", "resonance_order", int, _at_least(2),
        "an integer >= 2 or auto", auto=True),
    Key("resonance.tol", "resonance_tol", float, _positive, "a number > 0"),
    Key("manifold.order", "order", int, _at_least(1), "an integer >= 1"),
    Key("manifold.extra_orders", "extra_orders", int, _at_least(0), "an integer >= 0"),
    Key("manifold.gauge", "gauge", float,
        lambda v: v != 0 and math.isfinite(v), "a finite nonzero number"),
    Key("validation.tolerances", "tolerances", _descending,
        lambda v: len(v) > 0 and all(t > 0 for t in v),
        "comma-separated numbers > 0"),
    Key("validation.sigma_scan_max", "sigma_scan_max", float, _positive,
        "a number > 0 or auto", auto=True),
    Key("validation.samples", "n_samples", int, _at_least(1), "an integer >= 1"),
    Key("validation.horizon_periods", "horizon_periods", float,
        lambda v: 0 < v < math.inf, "a finite number > 0"),
    Key("run.seed", "seed", int, _at_least(0), "an integer >= 0"),
    Key("output.directory", "out_dir", str, None, "a directory"),
    Key("solver.small_divisor_tol", "small_divisor_tol", float, _positive,
        "a number > 0"),
    Key("solver.solvability_tol", "solvability_tol", float, _positive,
        "a number > 0"),
)

_BY_NAME = {key.name: key for key in KEYS}
_PARAM = Key(PARAMS_PREFIX + "<name>", "model_params", float, None, "a number")


def _value(config, key: Key):
    return reduce(getattr, key.field.split("."), config)


def _show(value) -> str:
    """Config-file text of a value, which parses back to the same value.

    A NumPy scalar shows as the Python number it holds: its repr does not parse.
    """
    if value is None:
        return "auto"
    if isinstance(value, (tuple, list)):
        return ", ".join(_show(v) for v in value)
    if isinstance(value, np.generic):
        value = value.item()
    return value if isinstance(value, str) else repr(value)


@dataclass(frozen=True)
class RunConfig:
    model: str = "oracle"
    model_params: dict = field(default_factory=dict)
    integrator: IntegratorSettings = field(default_factory=IntegratorSettings)
    guess: tuple | None = None  # None: model default
    relax_time: float = 500.0
    newton_tol: float = 1e-12
    grid_size: int = 4096
    resonance_order: int | None = None  # None: max(order, 2)
    resonance_tol: float = 1e-8
    order: int = 9
    extra_orders: int = 1
    gauge: float = 1.0
    tolerances: tuple = (1e-6, 1e-8)
    sigma_scan_max: float | None = None
    n_samples: int = 50
    horizon_periods: float = 2.0
    seed: int = 2024
    out_dir: str = "runs/out"
    small_divisor_tol: float = 1e-8
    solvability_tol: float = 1e-9

    def validate(self) -> "RunConfig":
        """Check every value against its key's rule; returns the config."""
        for key in KEYS:
            value = _value(self, key)
            if key.check is None or (key.auto and value is None):
                continue
            if not key.check(value):
                raise ConfigError(f"{key.name} must be {key.rule}, got {_show(value)}")
        return self

    def effective_guess(self):
        if self.guess is not None:
            return self.guess
        if self.model in DEFAULT_GUESSES:
            return DEFAULT_GUESSES[self.model]
        raise ConfigError(f"cycle.guess required for model '{self.model}'")

    def echo(self, name: str) -> str:
        """Canonical config-file text of key ``name``'s effective value."""
        if name == "cycle.guess":
            return _show(self.effective_guess())
        return _show(_value(self, _BY_NAME[name]))

    def echo_text(self) -> str:
        """Canonical flat key/value rendering of the effective config."""
        lines = [f"{key.name} = {self.echo(key.name)}" for key in KEYS]
        # model parameters follow model.name, the first key
        lines[1:1] = [
            f"{PARAMS_PREFIX}{name} = {_show(value)}"
            for name, value in sorted(self.model_params.items())
        ]
        return "\n".join(lines) + "\n"


def parse_config_text(text: str) -> dict:
    """Parse the flat key/value grammar into a string map."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = value.strip()
    return out


def apply_env_overrides(kv: dict, environ=None) -> dict:
    env = os.environ if environ is None else environ
    out = dict(kv)
    for name, value in env.items():
        if name.startswith(ENV_PREFIX):
            key = name[len(ENV_PREFIX):].replace("__", ".")
            out[key] = value
    return out


def build_run_config(kv: dict) -> RunConfig:
    """Typed, checked RunConfig from a parsed key map; unknown keys are rejected."""
    cfg: dict = {}
    integ: dict = {}
    params: dict = {}
    for name, text in kv.items():
        if name.startswith(PARAMS_PREFIX):
            key, target, attr = _PARAM, params, name[len(PARAMS_PREFIX):]
        elif name in _BY_NAME:
            key = _BY_NAME[name]
            owner, _, attr = key.field.rpartition(".")
            target = integ if owner else cfg
        else:
            raise ConfigError(f"unknown config key: {name}")
        try:
            value = None if key.auto and text == "auto" else key.parse(text)
        except ValueError as exc:
            raise ConfigError(f"{name} must be {key.rule}, got {text!r}") from exc
        target[attr] = value
    if params:
        cfg["model_params"] = params
    if integ:
        cfg["integrator"] = IntegratorSettings(**integ)
    return RunConfig(**cfg).validate()


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    kv = apply_env_overrides(parse_config_text(text))
    return build_run_config(kv)
