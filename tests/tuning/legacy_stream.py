"""The genetic strategy on its pre-zoo RNG stream.

``tune(..., strategy="genetic")`` keys its stream
``(seed, stencil_id, oc.name, "genetic")``.  The genetic goldens were
recorded on the older key ``(seed, oc.name)``, with no stencil and no
strategy component; :class:`LegacyGeneticStrategy` keeps that key
through the same ``stream_components`` hook
:class:`~repro.tuning.RandomStrategy` uses for its own pinned stream.
"""

from repro.tuning import GeneticStrategy


class LegacyGeneticStrategy(GeneticStrategy):
    """:class:`GeneticStrategy` drawing from ``(seed, oc.name)``."""

    def stream_components(self, seed, stencil_id, oc):
        return (seed, oc.name)
