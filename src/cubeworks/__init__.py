"""cubeworks: a desk-scale workbench for finite cubical sets, their monoidal
structure and homology, and categories enriched in them."""

from .chains import (
    ChainComplex,
    ChainMap,
    HomologyReport,
    cubical_chains,
    homology,
    mapping_cone,
    simplicial_chains,
)
from .cubes import CubeMap, compose, enumerate_hom, face, identity, projection
from .cubical import (
    CellRef,
    CubicalMap,
    CubicalSet,
    boundary,
    coproduct,
    enumerate_maps,
    find_isomorphism,
    kan_check,
    open_box,
    pushout,
    pushout_product,
    standard_cube,
    tensor,
)
from .enriched import (
    EnrichedPresentation,
    attach,
    build_E,
    build_H,
    build_P,
    extend_inverse,
    homotopy_category,
    localize,
    mapping_space,
    special_category,
)
from .james import james
from .realize import (
    CylinderDatum,
    broken_cylinder,
    chain_realize,
    check_quillen,
    standard_cylinder,
)
from .simplicial import SimplicialSet, circle, standard_simplex, wedge_of_intervals
from .snf import smith_normal_form
from .triangulate import triangulate

__version__ = "0.1.0"
