"""Computational slice-hyperholomorphic Schur analysis over the quaternions.

The package provides the star-product algebra of matrix-valued
slice-rational functions, Blaschke factors and products with prescribed
zeros on the unit ball and the right half-space, Schur-kernel Gram
sampling with negative-squares estimation, coisometric realizations, and
desk-scale verification of the factorization S = B0^{-*} * S0.

Everything runs on numpy alone.  Schur kernels are summed in closed
form, and the kernel identity of the factorization is assembled from
block-Toeplitz products of Taylor coefficients.
"""

from .blaschke import (
    BALL,
    HALFSPACE,
    FactoredProduct,
    PointFactor,
    SphereFactor,
    ZeroSet,
    blaschke_factor,
    build_product,
)
from .errors import (
    ConfigError,
    ConstructionError,
    DivergenceError,
    DomainError,
    ExpansionError,
    IllPosedError,
    NotARootError,
    NumericError,
    PoleError,
    PrecondError,
    QSchurError,
    ShapeError,
    SpectrumError,
)
from .factorcheck import (
    Budget,
    FactorizationCase,
    VerdictReport,
    krein_langer_check,
    synthesize_generalized_schur,
)
from .kernels import (
    CAYLEY_X0,
    DoubleSeriesKernel,
    NegSquaresReport,
    SchurFunction,
    base_kernel,
    cayley_map,
    cayley_transport,
    estimate_dim_HB,
    estimate_neg_squares,
    gram,
    kernel_identity_check,
    moebius_identity_check,
    schur_kernel_eval,
)
from .qlinalg import (
    QMatrix,
    complex_adjoint,
    from_complex_adjoint,
    herm_eigen_neg,
    qmatrix_inv,
)
from .quat import (
    ImaginaryUnit,
    Quaternion,
    SphereRep,
    qdecompose,
    same_sphere,
    sample_ball_point,
    sample_ball_points,
    sample_halfspace_point,
    sample_imaginary_unit,
)
from .realization import (
    Colligation,
    backward_shift_colligation,
    colligation_from_blaschke_factor,
    realize_eval,
    realize_many,
    solve_stein,
)
from .starpoly import (
    SliceRational,
    StarPoly,
    extend_from_slice,
    left_root_extract,
    zero_multiplicity,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
