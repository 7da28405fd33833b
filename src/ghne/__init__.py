"""Generalized-hamming epitome algebra.

Collapse a stack of generalized-hamming convolution layers into one
equivalent bank (the deep epitome), apply it to inputs in a single
step, and verify the equivalence against layered and brute-force
references.  See the ghd, epitome, banks, oracle, model_io, and cli
modules; the public API is re-exported here, and the verification
references stay in ghne.oracle.
"""

from .banks import (
    Bank,
    DeepEpitome,
    LayerSpec,
    MemberStats,
    Model,
    StatsReport,
    apply,
    bank_stats,
    collapse,
    composite_convolve,
    convolve,
    crop_bank,
    effective_counts,
    effective_shape,
    layer_to_bank,
)
from .epitome import (
    CountOverflowError,
    Epitome,
    Histogram,
    add,
    histogram,
    make_normalized,
    mean_fuzziness,
    merged_pair,
    normalize,
)
from .ghd import analytic_bias, fuzziness, ghd, ghd_fold, mean_ghd
from .model_io import (
    BadMagicError,
    EpitomeFormatError,
    FormatError,
    ImageFormatError,
    ModelFormatError,
    TruncatedError,
    VersionError,
    load_epitome,
    load_model,
    read_image,
    save_epitome,
    save_model,
)
__version__ = "0.1.0"

__all__ = [
    "Bank",
    "DeepEpitome",
    "LayerSpec",
    "MemberStats",
    "Model",
    "StatsReport",
    "apply",
    "bank_stats",
    "collapse",
    "composite_convolve",
    "convolve",
    "crop_bank",
    "effective_counts",
    "effective_shape",
    "layer_to_bank",
    "CountOverflowError",
    "Epitome",
    "Histogram",
    "add",
    "histogram",
    "make_normalized",
    "mean_fuzziness",
    "merged_pair",
    "normalize",
    "analytic_bias",
    "fuzziness",
    "ghd",
    "ghd_fold",
    "mean_ghd",
    "BadMagicError",
    "EpitomeFormatError",
    "FormatError",
    "ImageFormatError",
    "ModelFormatError",
    "TruncatedError",
    "VersionError",
    "load_epitome",
    "load_model",
    "read_image",
    "save_epitome",
    "save_model",
    "__version__",
]
