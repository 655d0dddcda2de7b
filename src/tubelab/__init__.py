"""tubelab: a dyadic-grid laboratory for line families and tube shadings."""

from .grid import (
    CellSet,
    GridError,
    Scale,
    ScaleLadder,
    coarsen,
    covering_count,
    is_refinement,
    refine,
)
from .geometry import (
    GeometryError,
    Line,
    LineFamily,
    Shading,
    TubeSegment,
    angle_between,
    dual_line,
    dual_point,
    lines_in_tube,
    multiplicity,
    segment_cover,
    tube_cells,
    union_shadings,
)
from .measures import (
    GammaReport,
    MeasureError,
    NonConcentrationReport,
    densities,
    density,
    frostman_constant,
    gamma,
    gamma_sup,
    katz_tao_constant,
    two_ends_constant,
    two_ends_constants,
)
from .structure import (
    BranchingFunction,
    BroadNarrowResult,
    DecompositionError,
    MultiscalePartition,
    RefinementTrace,
    StructureError,
    branching,
    broad_narrow,
    common_branching,
    dyadic_pigeonhole,
    is_uniform,
    katz_tao_subsample,
    multiscale_decompose,
    rich_point_refine,
    shading_multiscale,
    two_ends_scale,
    uniformize,
    verify_decomposition,
)
from .constructions import (
    ConfigSpec,
    ConstructionError,
    build_base,
    bundle_case2,
    bush_config,
    grid_config,
    random_config,
    rescale_case1,
)

__version__ = "0.1.0"

# lab's names are looked up on first use, so that `python -m tubelab.lab` runs
# lab once, as __main__, rather than a second copy imported with the package.
_LAB_NAMES = (
    "LabError",
    "SweepResult",
    "TheoremReport",
    "fit_exponent",
    "run_cli",
    "sweep",
    "verify_corollary",
    "verify_theorem",
)


def __getattr__(name: str):
    if name in _LAB_NAMES:
        from . import lab

        return getattr(lab, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
