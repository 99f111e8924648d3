"""Stencil access-pattern modelling.

Public surface:

- :class:`Stencil` -- the immutable access pattern.
- :func:`star` / :func:`box` / :func:`cross` -- classic shape constructors.
- :func:`assign_tensor` / :func:`from_tensor` -- Fig. 6 binary-tensor
  representation.
- :func:`extract_features` -- Table II candidate feature vector.
- :func:`generate_population` -- Algorithm 1 random stencil generator.
- :data:`LIBRARY` -- the named benchmark stencils of the evaluation.
"""

from .features import (
    batch_features,
    describe,
    extract_features,
    feature_names,
    n_features,
)
from .generator import (
    generate_population,
    generate_stencil,
    verify_neighbor_property,
)
from .library import LIBRARY, benchmark_stencils, get, names
from .offsets import Offset, ball, chebyshev, moore_neighbors, shell, shell_size
from .shapes import Shape, box, classify, cross, star
from .stencil import Stencil
from .tensorize import assign_tensor, batch_tensors, from_tensor, tensor_shape

__all__ = [
    "LIBRARY",
    "Offset",
    "Shape",
    "Stencil",
    "assign_tensor",
    "ball",
    "batch_features",
    "batch_tensors",
    "benchmark_stencils",
    "box",
    "chebyshev",
    "classify",
    "cross",
    "describe",
    "extract_features",
    "feature_names",
    "from_tensor",
    "generate_population",
    "generate_stencil",
    "get",
    "moore_neighbors",
    "n_features",
    "names",
    "shell",
    "shell_size",
    "star",
    "tensor_shape",
    "verify_neighbor_property",
]
