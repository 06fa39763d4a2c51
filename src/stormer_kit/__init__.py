"""stormer-kit: block-matrix positivity, canonical Gram decompositions, PPT
state construction, and a decomposability test harness for positive maps.

The library centers on the two-sided positivity condition for 2 x 2 operator
block matrices (the block matrix and its index swap both PSD), its
characterization through normality of the ratio operator a2 a1^{-1}, the
resulting rank-one canonical decomposition, and the separable/PPT states and
map tests it induces.

Submodules load on first use: ``import stormer_kit`` imports none of them,
and so not numpy.  A public name is looked up in its submodule on every
access (PEP 562 ``__getattr__``), never cached here, so the package always
returns what the submodule currently binds.

``_EXPORTS`` is the one list of public names: each exported submodule reads
its ``__all__`` from its own row (``sampling`` adds three samplers that only
the self-test draws from), so the package and its submodules cannot
disagree on a name.
"""

import importlib
import sys

# Each public name, by the submodule that defines it and lists it in __all__.
_EXPORTS = {
    "blocks": (
        "ContractionCertificate",
        "Partition2",
        "assemble",
        "psd_oracle",
        "psd_via_contraction",
    ),
    "errors": ("DimensionError", "DomainError", "InputError", "ScaleError", "StormerKitError"),
    "linalg": (
        "DEFAULT_RCOND",
        "DEFAULT_TOL",
        "HermitianEig",
        "Tolerance",
        "adjoint",
        "eig_hermitian",
        "is_contraction",
        "is_hermitian",
        "is_hyponormal",
        "is_normal",
        "is_psd",
        "op_norm",
        "pinv",
        "psd_margin",
        "sqrt_psd",
    ),
    "maps": (
        "NAMED_MAPS",
        "NecessityReport",
        "PositiveMap",
        "WitnessResult",
        "apply_map_entrywise",
        "choi_fixture",
        "choi_matrix",
        "identity_map",
        "make_decomposable",
        "map_from_choi",
        "theorem1_necessity_trial",
        "transpose_map",
        "witness_search",
    ),
    "sampling": (
        "find_nontrivial_block",
        "ginibre",
        "haar_unitary",
        "random_normal_operator",
        "random_stormer_block",
        "random_stormer_blocks",
        "random_stormer_pair",
        "random_stormer_pairs",
        "uniform_disk",
    ),
    "states": (
        "DensityState",
        "SeparableDecomposition",
        "is_ppt",
        "partial_transpose",
        "partial_transpose_matrix",
        "separable_decomposition",
        "separable_state",
        "state_from_block",
    ),
    "stormer": (
        "CanonicalDecomposition",
        "OperatorBlockMatrix",
        "OperatorPair",
        "RatioOperator",
        "SpectralResolution",
        "canonical_decomposition",
        "contraction_condition",
        "dual_decomposition",
        "gram_block",
        "gram_row_block",
        "gram_vectors",
        "ratio_operator",
        "reconstruct_a2",
        "reconstruct_block",
        "spectral_resolution",
        "stormer_test",
        "swap_block",
    ),
}
_HOME = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli", "io", "selftest"})

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is not None:
        module = sys.modules.get(home) or importlib.import_module(home)
        return getattr(module, name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
