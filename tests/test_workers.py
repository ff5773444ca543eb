"""Fault injection on the forked worker of :mod:`slowphase.workers` and on
the response stage's split, each run in a fresh interpreter."""

import pytest

from child import run_child

WORKER_FAULT = """
import json, os, sys, time
from slowphase import workers
from slowphase.errors import IntegrationError

def child_raises():
    raise IntegrationError("step size underflow", time=1.25)

def parent_raises():
    raise IntegrationError("parent share failed")

def interrupted():
    raise KeyboardInterrupt

shares = {  # (this process's share, the worker's share)
    "child raises": (lambda: "mine", child_raises),
    "parent raises": (parent_raises, lambda: time.sleep(60)),
    "parent interrupted": (interrupted, lambda: time.sleep(60)),
    "child exits without a result": (lambda: "mine", lambda: os._exit(5)),
}
start = time.perf_counter()
try:
    workers.with_worker(*shares[sys.argv[1]], "trajectory flow")
    error = None
except BaseException as exc:
    error = [type(exc).__name__, str(exc), getattr(exc, "time", None)]
try:
    os.waitpid(-1, os.WNOHANG)
    children_left = True
except ChildProcessError:
    children_left = False
print(json.dumps({"error": error, "children_left": children_left, "seconds": time.perf_counter() - start}))
"""


@pytest.mark.parametrize(
    "case, error",
    [
        ("child raises", ["IntegrationError", "step size underflow", 1.25]),
        ("parent raises", ["IntegrationError", "parent share failed", None]),
        ("parent interrupted", ["KeyboardInterrupt", "", None]),
        (
            "child exits without a result",
            ["WorkerError", "trajectory flow worker exited with status 5 and sent no result", None],
        ),
    ],
)
def test_worker_faults(case, error):
    """Fault injection on the forked worker: its exception comes back
    typed, with its attributes; a raise in this process's share kills the
    worker (it would sleep a minute) and reaps it; a worker that exits
    without a result raises WorkerError naming its task and status."""
    report = run_child(WORKER_FAULT, case)
    assert report["error"] == error
    assert not report["children_left"]
    assert report["seconds"] < 30


RESPONSE_FAULT = """
import json, os, sys, time
import slowphase.response as response
from slowphase import workers
from slowphase.cli import main
from slowphase.config import load_config
from slowphase.errors import SmallDivisorError
from slowphase.pipeline import Stage, load_result, run_pipeline

cfg, case = sys.argv[1:]
config = load_config(cfg)
run_pipeline(config, through=Stage.FRAMES)
# the split on one usable CPU too; the size gate still applies
workers.can_split = lambda: True
sites = []
fork = os.fork
def counted_fork():
    sites.append(sys._getframe(2).f_code.co_name)  # the caller of with_worker
    return fork()
os.fork = counted_fork
if case == "phase share raises":
    def solve_orders(transport, first, reduce, expand, mu, lam_s, offset, *rest):
        if offset == 0:
            raise SmallDivisorError("injected in the phase share")
        time.sleep(60)
    response.solve_orders = solve_orders
start = time.perf_counter()
try:
    run_pipeline(config, resume=load_result(config), through=Stage.RESPONSE)
    error = None
except Exception as exc:
    error = [type(exc).__name__, str(exc)]
status = main(["response", "--config", cfg])
with open(os.path.join(config.out_dir, "manifest.json")) as fh:
    failed_stage = json.load(fh)["failed_stage"]
try:
    os.waitpid(-1, os.WNOHANG)
    children_left = True
except ChildProcessError:
    children_left = False
print(json.dumps({"error": error, "status": status, "failed_stage": failed_stage, "sites": sites,
                  "children_left": children_left, "seconds": time.perf_counter() - start}))
"""

EI_CFG = """
model.name = ei
cycle.grid_N = 1024
manifold.order = 9
solver.solvability_tol = {tol}
output.directory = {out}
"""


@pytest.mark.parametrize(
    "case, tol, error",
    [
        ("amplitude solvability", 1e-20, "SolvabilityError"),
        ("phase share raises", 1e-9, "SmallDivisorError"),
    ],
)
def test_response_worker_faults(tmp_path, case, tol, error):
    """On `ei` (grid 2^10, order 9) the response stage forks its amplitude
    recursion.  Under ``solver.solvability_tol = 1e-20`` the worker's
    SolvabilityError comes back with its type; an error in this process's
    phase share kills the worker (it would sleep a minute).  Either way
    ``slowphase response`` exits 3, the manifest names the response stage,
    and no child process is left."""
    cfg = tmp_path / "ei.cfg"
    cfg.write_text(EI_CFG.format(tol=tol, out=tmp_path / "out"))
    report = run_child(RESPONSE_FAULT, cfg, case)
    assert report["error"][0] == error, report["error"]
    if error == "SolvabilityError":
        assert report["error"][1].startswith("order-1 solvability residual")
    else:
        assert report["error"][1] == "injected in the phase share"
    assert report["status"] == 3
    assert report["failed_stage"] == "response"
    assert report["sites"] == ["expand_response_functions"] * 2
    assert not report["children_left"]
    assert report["seconds"] < 30
