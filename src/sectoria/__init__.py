"""Sectorial-matrix analysis: Cartesian and congruence decompositions, Schur
complements, and numerical verification of the associated determinant and
Loewner-order inequalities over seeded random matrix families."""

from .claim2 import (
    OmegaPartition,
    PositiveSequencePair,
    check_claim2,
    claim2_am_gm_bound,
    omega_partition,
    product_expansion_check,
    random_sequence_pair,
    subset_products,
)
from .errors import (
    NotAccretiveDissipativeError,
    NotAccretiveError,
    NotPositiveDefiniteError,
    NotSectorialError,
    OmegaPrimeEmptyError,
    SectoriaError,
    SingularBlockError,
    SingularLeadingBlockError,
    SingularMatrixError,
)
from .generators import (
    TrialConfig,
    child_seed,
    complex_gaussian,
    gen_accretive_dissipative,
    gen_positive_definite,
    gen_sectorial,
    gen_sectorial_planted,
    rng_stream,
)
from .inequalities import (
    DEFAULT_TOL,
    DeterminantBoundLevels,
    InequalityReport,
    check_claim1,
    check_corollary_ad,
    check_det_step,
    check_det_superadditivity,
    check_hartfiel,
    check_haynsworth,
    check_inverse_real_part,
    check_main1,
    check_main2,
    check_ostrowski_taussky_complement,
    check_schur_pd,
    check_schur_real_part,
    check_schur_wrongsec,
    check_weak_log_majorization,
    determinant_bound_levels,
    scalar_report,
)
from .linalg import (
    CartesianPair,
    cartesian_split,
    frobenius,
    inverse,
    solve,
)
from .schur import (
    CartesianSchurParts,
    cartesian_schur_identity,
    inverse_block_identity,
    real_inverse_identity,
    schur_complement,
)
from .sector import (
    SectorialDecomposition,
    SectorMembership,
    SectorWitness,
    in_sector,
    numerical_range_boundary,
    sector_angle,
    sector_angle_bisect,
    sectorial_decompose,
)

# Imported last: the falsifier runs through the check registry of the CLI.
from .cli import falsify_schur_wrongsec

__version__ = "0.1.0"
