"""Reproducible random-number handling.

All stochastic components in the library (AWGN channel, Monte-Carlo BER
simulation, random search baselines) accept either an integer seed or a
:class:`numpy.random.Generator`.  Centralizing the conversion in one
place keeps experiment scripts deterministic and lets tests derive
independent sub-streams from a single master seed.
"""

from __future__ import annotations

import hashlib
from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` produces a nondeterministic generator, an ``int`` a seeded
    one, and an existing generator is passed through unchanged (so that
    callers can thread one stream through a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_seed(master: int, *labels: object) -> int:
    """Derive a stable child seed from ``master`` and a label tuple.

    The derivation hashes the master seed together with the labels, so
    distinct labels give statistically independent streams while the
    same ``(master, labels)`` pair always maps to the same child seed.
    This is how the BER simulator gives every (design point, SNR point)
    its own reproducible noise stream.
    """
    text = repr((int(master),) + labels).encode("utf-8")
    digest = hashlib.sha256(text).digest()
    return int.from_bytes(digest[:8], "little")


def spawn_rng(master: int, *labels: object) -> np.random.Generator:
    """Shorthand for ``make_rng(derive_seed(master, *labels))``."""
    return make_rng(derive_seed(master, *labels))
