"""Named-stream RNG convention shared by every tuning strategy.

All randomness in :mod:`repro.tuning` flows through one helper,
:func:`stream_rng`, which derives an independent
:class:`numpy.random.Generator` from a tuple of *named* components --
ints are used as-is (negatives masked into SeedSequence's non-negative
entropy domain) and strings are hashed with :func:`zlib.crc32`, which is
stable across processes and Python versions (unlike builtin ``hash``).

The convention (PR 2's stream-key discipline, generalized)::

    stream_rng(seed, stencil_id, oc.name, *strategy_components)

Because streams are keyed by *content* -- never by evaluation order,
backend choice or worker count -- a strategy's draw sequence is
identical no matter how the engine batches, caches, shards or reorders
measurements.  The paper-default random search keys its stream as
``(seed, stencil_id, oc.name)`` with no strategy component (that exact
stream predates the registry and is pinned by campaign digests); every
other strategy appends its registry name so two strategies never share
a stream.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["stream_component", "stream_key", "stream_rng"]


def stream_component(value: "int | str") -> int:
    """One entropy component: crc32 for strings, masked int otherwise."""
    if isinstance(value, str):
        return zlib.crc32(value.encode())
    v = int(value)
    # SeedSequence rejects negative entropy; the mask keeps ad-hoc
    # stencil_id=-1 calls valid while leaving non-negative ids (and every
    # real seed) untouched -- bit-identical to the pre-refactor keying.
    return v if v >= 0 else v & 0x7FFFFFFF


def stream_key(*components: "int | str") -> tuple[int, ...]:
    """The full entropy tuple for a named stream."""
    return tuple(stream_component(c) for c in components)


def stream_rng(*components: "int | str") -> np.random.Generator:
    """An independent generator for the stream named by *components*."""
    return np.random.default_rng(np.random.SeedSequence(stream_key(*components)))
