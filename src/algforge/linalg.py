"""Exact rational linear algebra on sparse integer-indexed vectors.

Vectors are dicts mapping column index to a nonzero ``int`` or ``Fraction``.
The one elimination engine is an incremental forward-elimination table:
generator vectors are fed in one at a time, each reduced against the pivots
found so far (leftmost-column pivoting, first come first kept, no scaling
tricks beyond normalizing each pivot's leading entry to 1).  Every pivot row
keeps its expression as a combination of the original generators, which
turns span membership into an explicit certificate and a dependent
generator into a kernel vector.  A reduction only records its trail, the
pivot rows it subtracted and by what factor; a combination is summed from
the trail only where an answer reads it: a new pivot row, a certificate,
or a kernel vector, so a dependent generator costs one reduction.  Pivots
are never replaced, so a reduction may resume from its residual once more
generators are fed.  Arithmetic is exact end to end: integral entries
stay ``int``, and only the normalisation of a pivot's leading entry divides,
so only it makes a ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable

from .core import accumulate, q

Vec = dict[int, int | Fraction]  # column index -> nonzero exact scalar
Combo = dict[Hashable, int | Fraction]  # generator tag -> nonzero exact scalar
Trail = list[tuple[Combo, int | Fraction]]  # (pivot row's combo, factor) per step


class PivotTable:
    """Incremental forward elimination with certificate tracking."""

    def __init__(self):
        # lead column -> (vector with vec[lead] == 1, combo over generator tags)
        self.pivots: dict[int, tuple[Vec, Combo]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: Vec) -> tuple[Vec, Trail]:
        """Return (residual, trail) with vec = residual + combination(trail)
        over the pivot rows' generators.

        Successive leading columns of the work vector strictly increase, so
        the loop terminates.
        """
        work = dict(vec)
        trail: Trail = []
        while work:
            lead = min(work)
            hit = self.pivots.get(lead)
            if hit is None:
                break
            pvec, pcombo = hit
            factor = work[lead]
            accumulate(work, pvec.items(), -factor)
            trail.append((pcombo, factor))
        return work, trail

    @staticmethod
    def combination(trail: Trail) -> Combo:
        """The combination over generator tags that a ``reduce`` trail subtracted."""
        combo: Combo = {}
        for pcombo, factor in trail:
            accumulate(combo, pcombo.items(), factor)
        return combo

    def add(self, vec: Vec, tag: Hashable = None) -> bool:
        """Feed one generator; returns True iff it increased the rank."""
        residual, trail = self.reduce(vec)
        if not residual:
            return False
        self.store(residual, trail, tag)
        return True

    def store(self, residual: Vec, trail: Trail, tag: Hashable = None) -> None:
        """Keep a nonzero ``reduce`` result of generator ``tag`` as a new pivot."""
        lead = min(residual)
        pivot = residual[lead]
        # a unit is its own inverse, and nearly every lead is one
        scale = q(pivot if pivot == 1 or pivot == -1 else Fraction(1) / pivot)
        normal = {k: q(c * scale) for k, c in residual.items()}
        # vec = residual + sum(combo); residual = vec - sum(combo)
        combo = self.combination(trail)
        self.pivots[lead] = (normal, accumulate({tag: scale}, combo.items(), -scale))
