"""Numerical reduced and weighted Bergman kernels of planar domains,
and verification of their transformation laws under proper holomorphic
maps and correspondences."""

from .geometry import (
    Annulus,
    Disc,
    GenericDomain,
    QuadratureRule,
    annulus_grid,
    build_annulus_quadrature,
    build_disc_quadrature,
    build_generic_quadrature,
    disc_grid,
)
from .holobasis import (
    BasisElement,
    ConstantWeight,
    PowerWeight,
    PullbackWeight,
    RadialPolyWeight,
    RawBasis,
    laurent_basis,
    monomial_basis,
    numerical_period,
    pullback_weight,
    reduced_filter,
)
from .kernel import KernelEvaluator, OrthonormalBasis, gram_matrix, orthonormalize
from .propermaps import (
    BlaschkeProduct,
    BranchSet,
    CorrespondenceModel,
    PolynomialMap,
    PowerMap,
    ProperMap,
)
from .transform import (
    MapRecovery,
    TransformReport,
    adjoint_residual_matrix,
    branch_table,
    operator_bound_check,
    recover_map,
    verify_correspondence,
    verify_proper,
)

__version__ = "0.1.0"
