"""Internal-penalty discontinuous-Galerkin solver for elliptic systems.

Second-order elliptic PDEs in first-order flux form, discretized with
nodal Legendre-Gauss-Lobatto elements, mortar-coupled hp-nonconforming
meshes, and a generalized symmetric internal-penalty numerical flux. The
auxiliary (gradient) variable is eliminated element-locally, giving a
compact nearest-neighbor operator applied matrix-free.
"""

from .analysis import (
    ConvergenceSeries,
    convergence_rates,
    l2_error,
    symmetry_defect,
)
from .background import (
    ConformallyFlatBackground,
    FlatBackground,
    make_background,
)
from .boundaries import (
    AnalyticDirichletBC,
    AnalyticNeumannBC,
    AnalyticRobinBC,
    BoundaryMap,
    DirichletBC,
    FalloffDirichletBC,
    NeumannBC,
    RobinBC,
)
from .config import build_problem, load_config
from .errors import (
    ConfigurationError,
    DegenerateGeometryError,
    IpdgError,
    ResourceCapError,
    SingularPointError,
    TopologyError,
)
from .mesh import (
    build_annulus_mesh,
    build_rectilinear_mesh,
    refine_uniform,
    split_element,
    with_degrees,
)
from .operators import (
    FieldVector,
    OperatorHandle,
    lumped_mass_diag,
    penalty_sigma,
)
from .solutions import make_solution, manufactured_problem
from .solver import (
    ExplicitMatrix,
    SolveReport,
    assemble_explicit,
    schur_eliminate,
    solve_linear,
    solve_newton,
)
from .systems import PunctureSpec, make_system

__version__ = "0.1.0"

__all__ = [
    "ConvergenceSeries",
    "convergence_rates",
    "l2_error",
    "symmetry_defect",
    "ConformallyFlatBackground",
    "FlatBackground",
    "make_background",
    "AnalyticDirichletBC",
    "AnalyticNeumannBC",
    "AnalyticRobinBC",
    "BoundaryMap",
    "DirichletBC",
    "FalloffDirichletBC",
    "NeumannBC",
    "RobinBC",
    "build_problem",
    "load_config",
    "ConfigurationError",
    "DegenerateGeometryError",
    "IpdgError",
    "ResourceCapError",
    "SingularPointError",
    "TopologyError",
    "build_annulus_mesh",
    "build_rectilinear_mesh",
    "refine_uniform",
    "split_element",
    "with_degrees",
    "FieldVector",
    "OperatorHandle",
    "lumped_mass_diag",
    "penalty_sigma",
    "make_solution",
    "manufactured_problem",
    "ExplicitMatrix",
    "SolveReport",
    "assemble_explicit",
    "schur_eliminate",
    "solve_linear",
    "solve_newton",
    "PunctureSpec",
    "make_system",
    "__version__",
]
