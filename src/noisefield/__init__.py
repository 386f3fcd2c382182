"""Gaussian noise fields indexed by sigma-finite measures.

The package realizes set-indexed Gaussian noise through truncated
orthonormal-basis expansions over one universal space of i.i.d. standard
normal coordinates, together with the structures built on top of it:
the Hilbert space of (function, measure) classes, invariant measures of
iterated function systems with their isometry algebra, Bernoulli
convolutions, and boundary embeddings of positive definite kernels.
"""

from .sets import BorelSet
from .measures import (
    AtomicMeasure,
    BernoulliMeasure,
    DensityMeasure,
    IFSInvariantMeasure,
    LebesgueMeasure,
    SimpleFunction,
    SumMeasure,
    cantor_measure,
    measure_from_descriptor,
    radon_nikodym_on_grid,
    sum_measure,
)
from .ifs import (
    IteratedFunctionSystem,
    binary_system,
    cantor_system,
    chaos_game_sample,
    closedness_residual,
    cuntz_adjoint_apply,
    cuntz_apply,
    cuntz_relation_residual,
    invariant_integrate,
    invariant_moments,
    make_ifs,
    pushforward_system,
)
from .bases import (
    AtomicBasis,
    CoordinateFactorMap,
    LegendreBasis,
    MixedBasis,
    OrthonormalBasis,
    PiecewiseBasis,
    SineBasis,
    TransformedBasis,
    WalshBasis,
    default_truncation,
    make_basis,
    partition_basis,
)
from .noise import (
    GaussianNoiseField,
    UniversalSamplePoint,
    characteristic_functional_mc,
    characteristic_functional_target,
    ell2_escape_ratio,
    fbm_increment_variance,
    fbm_spectral_integral,
    max_coordinate,
    moment_identity_mc,
    moment_identity_target,
    sample_xi,
)
from .sigma import (
    CorrelatedPair,
    SigmaFunction,
    SigmaLift,
    add,
    correlated_pair,
    equivalence_residual,
    equivalent,
    inner_product,
    lift,
)
from .bernoulli import (
    BernoulliConvolution,
    ac2_l2_proxy,
    coupled_samples,
    covariance,
    cross_term_bound_mc,
    density_estimate,
    fourier_transform,
    hardy_coefficients,
    inversion_density,
    scaling_identity_residual,
)
from .kernels import (
    BUDGET_EXCEEDED,
    ESCAPED,
    INSIDE,
    BrownianKernel,
    JuliaProductKernel,
    SzegoKernel,
    boundary_process_at,
    boundary_process_cov,
    embed_point,
    exp_set_gram,
    exp_set_kernel,
    fourier_map_isometry,
    julia_membership,
    julia_orbit,
    kernel_reconstruct,
    metric_identity_residual,
    szego_boundary_integral,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
