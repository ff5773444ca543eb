"""Slow-submanifold parameterization and response functions for limit cycles.

The pipeline: locate the cycle and its Floquet spectrum, build the
tangent/normal bundle frame and its adjoint, expand the slow submanifold and
the phase/amplitude response functions as Fourier-Taylor series, and
validate against the invariance and pairing identities.
"""

__version__ = "0.1.0"

from .cycle import (
    CycleResult,
    FloquetSpectrum,
    ResonanceReport,
    check_resonances,
    find_cycle,
    floquet_spectrum,
)
from .frames import (
    Frame,
    build_adjoint_frame,
    build_bundle_frame,
    build_real_frames,
    cross_check_adjoint_frame,
)
from .integrate import IntegratorSettings, flow
from .manifold import ManifoldExpansion, evaluate_manifold, expand_slow_manifold
from .models import (
    EIParameters,
    VectorFieldModel,
    get_model,
    jet_compose,
    make_ei_model,
    make_oracle_model,
    register_model,
)
from .response import ResponseExpansion, expand_response_functions
from .series import FourierSeries, FourierTaylor, solve_diagonal
from .validation import (
    AccuracyDomain,
    ValidationReport,
    accuracy_domain,
    orthogonality_report,
    run_validation,
    trajectory_consistency,
)

__all__ = [name for name in dir() if not name.startswith("_")]
