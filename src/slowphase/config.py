"""Run configuration: flat dotted-key text format with env overrides.

Grammar (one assignment per line)::

    # comment
    model.name = ei
    model.params.eta_e = -5.0
    cycle.guess = 0.05, -0.5, 0.5, 0.05, -0.5, 0.5
    integrator.rtol = 1e-12
    manifold.order = 9

Values are parsed as int, float, bool, comma-separated float vectors, or
strings.  Environment variables override file keys: ``SLOWPHASE_`` followed
by the key with dots replaced by double underscores, e.g.
``SLOWPHASE_integrator__rtol=1e-10``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .integrate import IntegratorSettings

__all__ = ["RunConfig", "parse_config_text", "build_run_config", "load_config"]

ENV_PREFIX = "SLOWPHASE_"

DEFAULT_GUESSES = {
    "oracle": (1.3, 0.0),
    "ei": (0.05, -0.5, 0.5, 0.05, -0.5, 0.5),
}


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
    bundle_scale: tuple | float | None = None
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
        n = self.grid_size
        if n < 2 or (n & (n - 1)) != 0:
            raise ConfigError(f"cycle.grid_N must be a power of two, got {n}")
        if self.order < 1:
            raise ConfigError("manifold.order must be >= 1")
        if self.extra_orders < 0:
            raise ConfigError("manifold.extra_orders must be >= 0")
        if not self.tolerances:
            raise ConfigError("validation.tolerances must be nonempty")
        tols = tuple(sorted(self.tolerances, reverse=True))
        return replace(self, tolerances=tols)

    def effective_guess(self):
        if self.guess is not None:
            return self.guess
        if self.model in DEFAULT_GUESSES:
            return DEFAULT_GUESSES[self.model]
        raise ConfigError(f"cycle.guess required for model '{self.model}'")

    def echo_text(self) -> str:
        """Canonical flat key/value rendering of the effective config."""
        lines = [f"model.name = {self.model}"]
        for k in sorted(self.model_params):
            lines.append(f"model.params.{k} = {self.model_params[k]!r}")
        lines += [
            f"integrator.rtol = {self.integrator.rtol!r}",
            f"integrator.atol = {self.integrator.atol!r}",
            f"integrator.max_steps = {self.integrator.max_steps}",
            f"cycle.guess = {', '.join(repr(g) for g in self.effective_guess())}",
            f"cycle.relax_time = {self.relax_time!r}",
            f"cycle.newton_tol = {self.newton_tol!r}",
            f"cycle.grid_N = {self.grid_size}",
            f"resonance.order = {self.resonance_order if self.resonance_order is not None else 'auto'}",
            f"resonance.tol = {self.resonance_tol!r}",
            f"bundle.scale = {self.bundle_scale if self.bundle_scale is not None else 'auto'}",
            f"manifold.order = {self.order}",
            f"manifold.extra_orders = {self.extra_orders}",
            f"manifold.gauge = {self.gauge!r}",
            f"validation.tolerances = {', '.join(repr(t) for t in self.tolerances)}",
            f"validation.sigma_scan_max = {self.sigma_scan_max if self.sigma_scan_max is not None else 'auto'}",
            f"validation.samples = {self.n_samples}",
            f"validation.horizon_periods = {self.horizon_periods!r}",
            f"run.seed = {self.seed}",
            f"output.directory = {self.out_dir}",
            f"solver.small_divisor_tol = {self.small_divisor_tol!r}",
            f"solver.solvability_tol = {self.solvability_tol!r}",
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


def _as_float(key, value):
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from exc


def _as_int(key, value):
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from exc


def _as_vector(key, value):
    try:
        return tuple(float(part) for part in value.split(","))
    except ValueError as exc:
        raise ConfigError(f"{key}: expected comma-separated numbers") from exc


def build_run_config(kv: dict) -> RunConfig:
    """Typed RunConfig from a parsed key map; unknown keys are rejected."""
    cfg: dict = {}
    params: dict = {}
    integ: dict = {}
    for key, value in kv.items():
        if key == "model.name":
            cfg["model"] = value
        elif key.startswith("model.params."):
            params[key[len("model.params."):]] = _as_float(key, value)
        elif key == "integrator.rtol":
            integ["rtol"] = _as_float(key, value)
        elif key == "integrator.atol":
            integ["atol"] = _as_float(key, value)
        elif key == "integrator.max_steps":
            integ["max_steps"] = _as_int(key, value)
        elif key == "cycle.guess":
            cfg["guess"] = _as_vector(key, value)
        elif key == "cycle.relax_time":
            cfg["relax_time"] = _as_float(key, value)
        elif key == "cycle.newton_tol":
            cfg["newton_tol"] = _as_float(key, value)
        elif key == "cycle.grid_N":
            cfg["grid_size"] = _as_int(key, value)
        elif key == "resonance.order":
            cfg["resonance_order"] = None if value == "auto" else _as_int(key, value)
        elif key == "resonance.tol":
            cfg["resonance_tol"] = _as_float(key, value)
        elif key == "bundle.scale":
            if value != "auto":
                vec = _as_vector(key, value)
                cfg["bundle_scale"] = vec[0] if len(vec) == 1 else vec
        elif key == "manifold.order":
            cfg["order"] = _as_int(key, value)
        elif key == "manifold.extra_orders":
            cfg["extra_orders"] = _as_int(key, value)
        elif key == "manifold.gauge":
            cfg["gauge"] = _as_float(key, value)
        elif key == "validation.tolerances":
            cfg["tolerances"] = _as_vector(key, value)
        elif key == "validation.sigma_scan_max":
            cfg["sigma_scan_max"] = None if value == "auto" else _as_float(key, value)
        elif key == "validation.samples":
            cfg["n_samples"] = _as_int(key, value)
        elif key == "validation.horizon_periods":
            cfg["horizon_periods"] = _as_float(key, value)
        elif key == "run.seed":
            cfg["seed"] = _as_int(key, value)
        elif key == "output.directory":
            cfg["out_dir"] = value
        elif key == "solver.small_divisor_tol":
            cfg["small_divisor_tol"] = _as_float(key, value)
        elif key == "solver.solvability_tol":
            cfg["solvability_tol"] = _as_float(key, value)
        else:
            raise ConfigError(f"unknown config key: {key}")
    if params:
        cfg["model_params"] = params
    if integ:
        cfg["integrator"] = IntegratorSettings(**integ)
    return RunConfig(**cfg).validate()


def load_config(path: str, environ=None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    kv = apply_env_overrides(parse_config_text(text), environ)
    return build_run_config(kv)
