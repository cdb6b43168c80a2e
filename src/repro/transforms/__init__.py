"""Linear transforms used as strategy matrices.

* :mod:`repro.transforms.wavelet` — the one-dimensional Haar wavelet transform
  of Xiao et al. (strategy for range queries).
* :mod:`repro.transforms.hierarchical` — the dyadic/binary-tree hierarchy of
  Hay et al.

The Walsh–Hadamard (Fourier) transform of the paper's Section 4 lives in
:mod:`repro.fourier`.
"""

from repro.transforms.wavelet import (
    haar_transform,
    inverse_haar_transform,
    haar_matrix,
    haar_level_of_row,
)
from repro.transforms.hierarchical import (
    hierarchical_matrix,
    hierarchical_levels,
    hierarchical_transform,
)
from repro.transforms.sketch import (
    sketch_groups,
    sketch_matrix,
    sketch_with_totals,
)

__all__ = [
    "haar_transform",
    "inverse_haar_transform",
    "haar_matrix",
    "haar_level_of_row",
    "hierarchical_matrix",
    "hierarchical_levels",
    "hierarchical_transform",
    "sketch_groups",
    "sketch_matrix",
    "sketch_with_totals",
]
