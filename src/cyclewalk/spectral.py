"""The closed-form spectrum of the cycle walk, read off `special.eigenbasis`.

The one-step operator of a k-cycle walk is block circulant with 2x2 blocks,
so its 2k eigenvalues are those of k independent 2x2 unitaries, in closed
form from the block angles.  The dense conjugation is a test oracle, in
tests/oracles.py.
"""

from __future__ import annotations

import numpy as np

from .special import eigenbasis
from .walk import CoinParams

__all__ = ["full_spectrum"]


def full_spectrum(k: int, params: CoinParams) -> np.ndarray:
    """All 2k eigenvalues of the step operator, block-major, in closed form.

    Entries [2l, 2l+1] are block l's phase-sorted pair, see `special.eigenbasis`.
    """
    return eigenbasis(k, params).values.copy()
