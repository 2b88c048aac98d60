"""Essential p-dimension of finite diagonalizable group schemes.

The input is a finite group acting on a finitely generated abelian group
whose torsion is p-primary (the character module of a diagonalizable
group over a p-closed field).  The answer is the minimal rank of a
permutation lattice mapping onto the module with finite cokernel of
order prime to p, minus the module's free rank.
"""

from .group_core import (
    CosetAction,
    FiniteGroup,
    SubgroupClass,
    coset_action,
    dihedral8,
    direct_product,
    from_table,
    heisenberg27,
    make_cyclic,
    quaternion8,
    subgroup_class,
    subgroup_classes,
    subgroup_of,
)
from .int_lattice import (
    GaloisModule,
    MixedTorsionError,
    direct_sum,
    fixed_submodule,
    hermite_normal_form,
    hom_module,
    local_fixed_basis,
    quotient_by_orbit_relations,
    smith_normal_form,
)
from .fp_module import (
    FpGaloisModule,
    Subspace,
    coinvariants,
    fixed_image_subspace,
    orbit_span,
    reduce_mod_p,
)
from .ed_solver import (
    BudgetExceededError,
    CoverCertificate,
    EdResult,
    brute_force_min_rank,
    classify_ed_le_one,
    genus_equal,
    min_permutation_rank,
    verify_certificate,
)
from .catalog import (
    CatalogEntry,
    build_cyclic,
    build_list_L,
    build_norm_one,
    expected_table,
    instantiated_catalog,
    parse_catalog_key,
    permutation_module,
    trivial_lattice,
)

__all__ = [
    "BudgetExceededError",
    "CatalogEntry",
    "CosetAction",
    "CoverCertificate",
    "EdResult",
    "FiniteGroup",
    "FpGaloisModule",
    "GaloisModule",
    "MixedTorsionError",
    "Subspace",
    "SubgroupClass",
    "build_cyclic",
    "build_list_L",
    "build_norm_one",
    "brute_force_min_rank",
    "classify_ed_le_one",
    "coinvariants",
    "coset_action",
    "dihedral8",
    "direct_product",
    "direct_sum",
    "expected_table",
    "fixed_image_subspace",
    "fixed_submodule",
    "from_table",
    "genus_equal",
    "heisenberg27",
    "hermite_normal_form",
    "hom_module",
    "instantiated_catalog",
    "local_fixed_basis",
    "make_cyclic",
    "min_permutation_rank",
    "orbit_span",
    "parse_catalog_key",
    "permutation_module",
    "quaternion8",
    "quotient_by_orbit_relations",
    "reduce_mod_p",
    "smith_normal_form",
    "subgroup_class",
    "subgroup_classes",
    "subgroup_of",
    "trivial_lattice",
    "verify_certificate",
]
