"""Combinatorics of the moduli of broken lines.

Linear preorders and amalgams, exact Rep(I, BR+) coordinates, broken
lines and their sampled families, constructible sheaves on stratum
posets, the twisted-arrow category with Day convolution, the
factorizable-sheaf / nonunital-algebra roundtrip, and a numerical Morse
gradient-flow demo.
"""

from .extreal import INF, NEG_INF, ExtReal, UndefinedSum
from .orders import (
    Amalgam,
    ConvexEquiv,
    LinOrder,
    LinPreorder,
    OrderMorphism,
    concatenate_orders,
    enumerate_amalgams,
    enumerate_convex_equivalences,
    enumerate_linear_preorders,
    enumerate_surjections,
    preorder_ranks,
    quotient,
)
from .rep import (
    GRID,
    RepPoint,
    chart_coordinates,
    concat_reps,
    in_stratum,
    phi_membership,
    pullback_rep,
    rep_from_gaps,
    stratum_of,
    stratum_samples,
    u_contains,
)
from .lines import (
    BrokenLine,
    HomSet,
    LineIso,
    LinePoint,
    compare,
    concatenate,
    fiber_over,
    find_marked_iso,
    translate,
    translation_distance,
)
from .families import (
    ISectionData,
    SampledFamily,
    build_family,
    check_axioms_on_path,
    concat_families,
    extract_alpha,
)
from .configurations import (
    Configuration,
    config_from_amalgam_point,
    k_of,
    u_membership,
    verify_join_identity,
)
from .vect import (
    BUILTIN_ALGEBRAS,
    LinMap,
    NonunitalAlgebra,
    VectObject,
    block_map,
    direct_sum,
    distribute,
    matrix_algebra_2x2,
    nilpotent_upper3,
    rational_algebra,
    tensor,
    zero_algebra,
)
from .sheaves import (
    ConstructibleSheaf,
    GlobalSheaf,
    apply_surjection,
    evaluate_on_family,
    global_to_constructible,
    stalk,
)
from .twisted import (
    TwFunctor,
    TwMorphism,
    TwObject,
    algebra_to_functor,
    day_assoc_check,
    day_convolution,
    day_square,
    factorizable_check,
    flat,
    functor_to_algebra,
    roundtrip,
    roundtrip_natural_iso,
    sharp,
    tw_enumerate,
    tw_star,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
