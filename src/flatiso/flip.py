"""The flip construction for almost-conjugate partners.

Given a diagonal representation rho = sum_I q_I chi_I and a pair of distinct
nonzero group elements g1, g2, split the characters into the four sign
classes of (chi(g1), chi(g2)); each class has exactly 2^{k-2} members.  With

    u = 2^{-(k-2)} * ( sum_{chi(g2)=-1, chi(g1)=+1} q_chi
                     - sum_{chi(g1)=-1, chi(g2)=+1} q_chi )
      = (s(g1) - s(g2)) / 2^{k-2},

where s(g) is the fixed-space dimension at g (the (+1, +1) class counts
towards both), the flip adds u to every multiplicity in the
(-1 at g1, +1 at g2) class and subtracts u in the opposite class.  When u
is an integer and no multiplicity goes negative, the result is again a
diagonal representation; it swaps the fixed-space dimensions at g1 and g2
and preserves all the others, so the two representations are
almost-conjugate.

Inapplicability (non-integer u, or a negative adjusted multiplicity) is
returned as data rather than raised: searches iterate flips over many
representations and count the applicable ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chargroup import check_mask
from .diagrep import DiagonalRep, fixed_dims

NON_INTEGER_SHIFT = "non-integer u"
NEGATIVE_MULTIPLICITY = "negative multiplicity"


@dataclass(frozen=True)
class FlipSpec:
    """Ordered pair of distinct nonzero group elements; the classical choice
    is (f_1, f_2), masks (1, 2)."""

    g1: int
    g2: int

    def __post_init__(self):
        if self.g1 == 0 or self.g2 == 0:
            raise ValueError("flip elements must be nonzero")
        if self.g1 == self.g2:
            raise ValueError("flip elements must be distinct")


DEFAULT_SPEC = FlipSpec(1, 2)


def _delta(mask: int, spec: FlipSpec) -> int:
    """+1 on the (-1 at g1, +1 at g2) class, -1 on the opposite one, else 0."""
    return ((mask & spec.g1).bit_count() & 1) - ((mask & spec.g2).bit_count() & 1)


def flip_shift(rep: DiagonalRep, spec: FlipSpec = DEFAULT_SPEC) -> Fraction:
    """The shift u as an exact rational (integrality is the applicability test)."""
    check_mask(spec.g1, rep.k)
    check_mask(spec.g2, rep.k)
    fixed = fixed_dims(rep)
    return Fraction(fixed[spec.g1] - fixed[spec.g2], 1 << (rep.k - 2))


@dataclass(frozen=True)
class FlipOutcome:
    shift: Fraction
    rep: DiagonalRep | None
    reason: str | None

    @property
    def applicable(self) -> bool:
        return self.rep is not None


def apply_flip(rep: DiagonalRep, spec: FlipSpec = DEFAULT_SPEC) -> FlipOutcome:
    """Flip rep along spec, or report why it does not apply."""
    u = flip_shift(rep, spec)
    if u.denominator != 1:
        return FlipOutcome(u, None, NON_INTEGER_SHIFT)
    ui = int(u)
    new_q = tuple(v + ui * _delta(m, spec) for m, v in enumerate(rep.q))
    if any(v < 0 for v in new_q):
        return FlipOutcome(u, None, NEGATIVE_MULTIPLICITY)
    return FlipOutcome(u, DiagonalRep(rep.k, new_q), None)
