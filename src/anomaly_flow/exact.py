"""Exact Gaussian-rational arithmetic.

The sign and factorial bookkeeping of the (2,2)-form component convention has
to be pinned down once, exactly.  ``GaussianRational`` is a complex number
with ``Fraction`` real and imaginary parts, supporting the ring operations
(plus exact division) needed by the exterior-algebra oracle in exact mode.
"""

from __future__ import annotations

from fractions import Fraction


class GaussianRational:
    """Complex number a + b*i with exact rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def _coerce(x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, complex):
                return complex(self) == other
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return float(self.re) + 1j * float(self.im)

    def __repr__(self):
        if self.im == 0:
            return f"GR({self.re})"
        return f"GR({self.re}, {self.im})"


def gr(re=0, im=0) -> GaussianRational:
    """Shorthand constructor, accepts ints, Fractions and '1/3' strings."""
    return GaussianRational(Fraction(re), Fraction(im))


def to_exact(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(Fraction(x))
