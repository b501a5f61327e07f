"""Weierstrass cubics y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6,
coordinate changes, and the classical invariants."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .poly import Polynomial, Ring

AI_NAMES = ("a1", "a2", "a3", "a4", "a6")
AI_WEIGHTS = (2, 4, 6, 8, 12)


def universal_curve_ring(modulus: Optional[int] = None) -> Ring:
    return Ring(AI_NAMES, AI_WEIGHTS, modulus)


def universal_curve(modulus: Optional[int] = None) -> "WeierstrassCurve":
    r = universal_curve_ring(modulus)
    return WeierstrassCurve(*[r.gen(n) for n in AI_NAMES])


@dataclass(frozen=True)
class WeierstrassCurve:
    """Coefficients may live in any graded polynomial ring (or be constants
    of that ring); a1..a6 carry weights 2,4,6,8,12 when graded."""
    a1: Polynomial
    a2: Polynomial
    a3: Polynomial
    a4: Polynomial
    a6: Polynomial

    def __post_init__(self):
        r = self.a1.ring
        for a in (self.a2, self.a3, self.a4, self.a6):
            if not (a.ring is r or a.ring.same_as(r)):
                raise ValueError("curve coefficients in different rings")

    @property
    def ring(self) -> Ring:
        return self.a1.ring

    def coefficients(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @classmethod
    def from_constants(cls, coeffs, ring: Optional[Ring] = None):
        if ring is None:
            ring = Ring((), ())
        a1, a2, a3, a4, a6 = [ring.const(c) if isinstance(c, int) else c
                              for c in coeffs]
        return cls(a1, a2, a3, a4, a6)


@dataclass(frozen=True)
class CoordinateChange:
    """x = x' + r, y = y' + s x' + t, for ring elements r, s, t of weights
    4, 2, 6.

    The unit u of the general change x = u^2 x' + r, ... is 1 here: the
    Weierstrass algebroid is graded, and the grading carries u."""
    r: Polynomial
    s: Polynomial
    t: Polynomial

    @property
    def ring(self) -> Ring:
        return self.r.ring

    def inverse(self) -> "CoordinateChange":
        r, s, t = self.r, self.s, self.t
        return CoordinateChange(-r, -s, -t + s * r)

    def compose(self, second: "CoordinateChange") -> "CoordinateChange":
        """The change equivalent to applying `self`, then `second`."""
        r1, s1, t1 = self.r, self.s, self.t
        r2, s2, t2 = second.r, second.s, second.t
        # x = x' + r1, x' = x'' + r2, etc.
        return CoordinateChange(r1 + r2, s1 + s2, t1 + t2 + s1 * r2)


def transform(curve: WeierstrassCurve, change: CoordinateChange
              ) -> WeierstrassCurve:
    """Coefficients of the curve in the new coordinates, in the change's
    ring, which must extend the curve's."""
    a1, a2, a3, a4, a6 = [a.cast(change.ring) for a in curve.coefficients()]
    r, s, t = change.r, change.s, change.t
    return WeierstrassCurve(
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * a2 * r - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1)


def invariants(curve: WeierstrassCurve) -> dict:
    """b2, b4, b6, b8, c4, c6 and the discriminant; the returned dict also
    records whether c4^3 - c6^2 = 1728 * disc held."""
    a1, a2, a3, a4, a6 = curve.coefficients()
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = (a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3
          - a4 * a4)
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2 ** 3) + 36 * b2 * b4 - 216 * b6
    disc = -(b2 * b2 * b8) - 8 * (b4 ** 3) - 27 * (b6 * b6) + 9 * b2 * b4 * b6
    identity_ok = (c4 ** 3 - c6 * c6) == (1728 * disc)
    return {"b2": b2, "b4": b4, "b6": b6, "b8": b8,
            "c4": c4, "c6": c6, "delta": disc,
            "c4_c6_delta_identity": identity_ok}
