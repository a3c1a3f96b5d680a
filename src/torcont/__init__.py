"""Continuation of two-dimensional quasi-periodic invariant tori.

The package discretizes an invariant torus of an autonomous or periodically
forced ODE system as 2N+1 collocation segments coupled by a discrete
all-to-all boundary condition (Fourier transform + coefficient rotation),
and traces one-parameter families of such tori by pseudo-arclength
continuation.  Torus families can be seeded from forward-simulation
samples, from saved solutions, from branch points, or from Neimark-Sacker
(TR) bifurcations of periodic orbits.
"""

from .colloc import SegmentMesh, Trajectory, build_mesh, interpolate, segment_residual
from .contin import (
    Branch,
    ContinuationProblem,
    ContinuationState,
    detect_branch_point,
    locate_event,
    run,
    switch_branch,
)
from .errors import (
    BranchPointError,
    ConfigError,
    ConvergenceError,
    FormatError,
    InputError,
    IntegrationError,
    NotFoundError,
    TorcontError,
)
from .fourier import CouplingMatrices, coupling_residual, dft_matrix, phase_derivative_weights, rotation_matrix
from .ivp import IvpOptions, IvpResult, TransitionMatrixResult, integrate, transition_matrix
from .odesys import VectorField, builtin_langford, builtin_vdp, eval_rhs, get_builtin
from .po import FloquetData, PeriodicOrbit, floquet, po_residual, solve_po, tr_test_function
from .store import read_bd, read_solution
from .torus import (
    ReferenceSection,
    TorusSolution,
    dimension_deficit,
    export_torus_mesh,
    init_from_TR,
    init_from_samples,
    invariance_deviation,
    torus_jacobian,
    torus_residual,
    update_reference,
)

__version__ = "0.1.0"
