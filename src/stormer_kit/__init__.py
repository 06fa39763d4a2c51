"""stormer-kit: block-matrix positivity, canonical Gram decompositions, PPT
state construction, and a decomposability test harness for positive maps.

The library centers on the two-sided positivity condition for 2 x 2 operator
block matrices (the block matrix and its index swap both PSD), its
characterization through normality of the ratio operator a2 a1^{-1}, the
resulting rank-one canonical decomposition, and the separable/PPT states and
map tests it induces.
"""

from .blocks import (
    ContractionCertificate,
    Partition2,
    assemble,
    psd_oracle,
    psd_via_contraction,
)
from .errors import DimensionError, DomainError, InputError, StormerKitError
from .linalg import (
    DEFAULT_RCOND,
    DEFAULT_TOL,
    HermitianEig,
    Tolerance,
    adjoint,
    eig_hermitian,
    is_contraction,
    is_hermitian,
    is_hyponormal,
    is_normal,
    is_psd,
    op_norm,
    pinv,
    psd_margin,
    sqrt_psd,
)
from .maps import (
    NAMED_MAPS,
    NecessityReport,
    PositiveMap,
    WitnessResult,
    apply_map_entrywise,
    choi_fixture,
    choi_matrix,
    identity_map,
    make_decomposable,
    map_from_choi,
    theorem1_necessity_trial,
    transpose_map,
    witness_search,
)
from .sampling import (
    find_nontrivial_block,
    ginibre,
    haar_unitary,
    random_normal_operator,
    random_stormer_block,
    random_stormer_blocks,
    random_stormer_pair,
    random_stormer_pairs,
    uniform_disk,
)
from .states import (
    DensityState,
    SeparableDecomposition,
    is_ppt,
    partial_transpose,
    partial_transpose_matrix,
    separable_decomposition,
    separable_state,
    state_from_block,
)
from .stormer import (
    CanonicalDecomposition,
    OperatorBlockMatrix,
    OperatorPair,
    RatioOperator,
    SpectralResolution,
    canonical_decomposition,
    contraction_condition,
    dual_decomposition,
    gram_block,
    gram_row_block,
    gram_vectors,
    ratio_operator,
    reconstruct_a2,
    reconstruct_block,
    spectral_resolution,
    stormer_test,
    swap_block,
)

__version__ = "0.1.0"
