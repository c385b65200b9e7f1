"""Exact cylinder-space toolkit for finite fuzzy topologies.

Everything is computed over rational scalars with zero-tolerance equality:
membership-graph regions on the cylinder X x [0,1), the induced base
topology, a certified deformation retraction onto the zero slice, a closed
path DSL whose continuity is decided exactly at the breakpoints of each
path, and the complement-as-path-inversion decision procedure.
"""

from .base_space import (
    ConnectivityReport,
    check_pc_lpc,
    connected_components,
    fence_between,
    iota_x,
    specialization_preorder,
)
from .cylinder import (
    CompatReport,
    CylPoint,
    CylinderOpen,
    OpenExpr,
    SubbasisElem,
    SweepResult,
    complement_compat,
    component_cylinder_expr,
    critical_gammas,
    cyl_complement,
    cyl_intersect,
    cyl_subset,
    cyl_union,
    empty_cylinder,
    open_realize,
    pi2,
    psi_star,
    recover_membership,
    subbasis_elements,
    subbasis_realize,
    tstar,
    verify_psi_laws,
)
from .functor import (
    ComplementReport,
    complement_report,
    is_complement,
)
from .fuzzy import (
    FuzzySet,
    FuzzyTopology,
    GroundSet,
    ValidationReport,
    fz_complement,
    fz_generate_topology,
    fz_indicator,
    fz_is_topology,
    ground,
)
from .intervals import (
    EMPTY_SET,
    IntervalSet,
    iv_complement_in_J,
    iv_intersect,
    iv_subset,
    iv_supremum,
    iv_union,
    make_interval,
    make_unit_interval,
    singleton,
)
from .oracle import GridOracle, oracle_rasterize
from .paths import (
    ChiBoundary,
    Concat,
    Const,
    FencePath,
    HLift,
    HTransform,
    PathExpr,
    Reverse,
    VerticalAffine,
    chi_eval,
    continuity_failure,
    eval_path,
    functor_object_path,
    kappa,
    make_fence_path,
    normalize_path,
    path_from_json,
    path_preimage,
    path_to_json,
)
from .rationals import ONE, ZERO, format_rational, frac, parse_rational, unit
from .retraction import (
    BoxWitness,
    continuity_witness,
    h_eval,
    h_image_of_box,
    sigma_image,
    sigma_image_subbasis,
    slice_agrees,
    verify_witness,
)
