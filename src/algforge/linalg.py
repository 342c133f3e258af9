"""Exact rational linear algebra on sparse integer-indexed vectors.

Vectors are dicts mapping column index to a nonzero ``int`` or ``Fraction``.
The one elimination engine is an incremental forward-elimination table:
generator vectors are fed in one at a time, each reduced against the pivots
found so far (leftmost-column pivoting, first come first kept, no scaling
tricks beyond normalizing each pivot's leading entry to 1).  The table
tracks, for every pivot row, its expression as a combination of the
original generators, which turns span membership into an explicit
certificate and a dependent generator into a kernel vector.  Arithmetic is exact end to end:
integral entries stay ``int``, and only the normalisation of a pivot's
leading entry divides, so only it makes a ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable

from .core import accumulate, q

Vec = dict[int, int | Fraction]  # column index -> nonzero exact scalar


class PivotTable:
    """Incremental forward elimination with certificate tracking."""

    def __init__(self):
        # lead column -> (vector with vec[lead] == 1, combo over generator tags)
        self.pivots: dict[int, tuple[Vec, dict[Hashable, Fraction]]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: Vec) -> tuple[Vec, dict[Hashable, Fraction]]:
        """Return (residual, combo) with vec = residual + sum(combo * pivot-origin).

        The combo is expressed over the tags of previously added generators.
        Successive leading columns of the work vector strictly increase, so
        the loop terminates.
        """
        work = dict(vec)
        combo: dict[Hashable, Fraction] = {}
        while work:
            lead = min(work)
            hit = self.pivots.get(lead)
            if hit is None:
                break
            pvec, pcombo = hit
            factor = work[lead]
            accumulate(work, pvec.items(), -factor)
            accumulate(combo, pcombo.items(), factor)
        return work, combo

    def add(self, vec: Vec, tag: Hashable = None) -> bool:
        """Feed one generator; returns True iff it increased the rank."""
        residual, combo = self.reduce(vec)
        if not residual:
            return False
        self.store(residual, combo, tag)
        return True

    def store(self, residual: Vec, combo: dict[Hashable, Fraction], tag: Hashable = None) -> None:
        """Keep a nonzero ``reduce`` result of generator ``tag`` as a new pivot."""
        lead = min(residual)
        scale = q(Fraction(1) / residual[lead])
        normal = {k: q(c * scale) for k, c in residual.items()}
        # vec = residual + sum(combo); residual = vec - sum(combo)
        self.pivots[lead] = (normal, accumulate({tag: scale}, combo.items(), -scale))

    def membership(self, vec: Vec) -> tuple[bool, dict[Hashable, Fraction], int | None]:
        """Test span membership; returns (ok, combo, witness-column-or-None)."""
        residual, combo = self.reduce(vec)
        if residual:
            return False, {}, min(residual)
        return True, combo, None
