"""Computational topology of commuting-tuple spaces for finite groups.

Exact integer/rational computation of: homology of the commuting-tuple and
homogeneous total-space simplicial models, group-ring coinvariants and the
Moore-complex middle homology, commutator lattices of torus extensions of
finite groups, winding classes of clutching loops from commutative patch
cocycles over the three-patch sphere cover, and the coset poset of abelian
subgroups as a cross-validation oracle.
"""

from .catalog import (
    alternating,
    catalog_group,
    catalog_groups,
    catalog_names,
    cyclic,
    dihedral,
    permutation_group,
    quaternion,
    symmetric,
)
from .cocycles import (
    NOT_IDENTITY_COMPONENT,
    ClutchResult,
    PatchCocycle,
    PLPath,
    QxResult,
    build_alpha_cocycle,
    build_qx_cocycle,
    clutch,
)
from .cosetposet import CosetPoset, abelian_subgroups, coset_poset_homology
from .errors import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    CommClassError,
    MathInvariantError,
    ParseError,
    TruncationError,
    ValidationError,
)
from .fileio import parse_cocycle, parse_extension, parse_group
from .groupring import coinvariants, moore_h2, pi2_e2_connected
from .groups import (
    FiniteGroup,
    Subgroup,
    abelianization,
    center,
    central_product,
    closure,
    commutator_subgroup,
    commuting_tuples,
    direct_product,
    generated_subgroup,
    invariant_factors_of_abelian,
    quotient_group,
    realize_triple,
)
from .intlinalg import (
    AbelianGroupInvariants,
    IntMatrix,
    Lattice,
    complement,
    homology_at,
    homology_range,
    integer_kernel,
    lattice_sum,
    row_hnf,
    saturate,
    snf_diagonal,
)
from .simplicial import (
    SimplicialTruncation,
    build_c,
    build_e,
    commutator_map,
    homology,
    p_map,
    reduced_homology_range,
)
from .torus import (
    CoverReport,
    ExtElement,
    TorusExtension,
    catalog_extension,
    catalog_extensions,
    commutator_lattices,
    extension_names,
    pi1_split,
    psi_star,
    single_commutator_cover,
    torus_pi1_lattice,
)

__version__ = "0.1.0"
