"""Machine-speed calibration for the timed runs.

On a shared host the speed of this kind of code drifts by up to a factor of
two within minutes, as neighbours come and go.  The benchmark therefore runs a
fixed calibration kernel between requests and scales each request's time by
NOMINAL_S / (mean of the two kernel times on each side of it): every
reported time is the time the request would take on a machine where the
kernel takes NOMINAL_S.  The kernel imitates the program's profile (small slotted objects
holding coefficient tuples, dunder dispatch, modular arithmetic, dict and
tuple churn) and never touches the program, so a change to the program moves
the scaled times and leaves the kernel alone.
"""

from __future__ import annotations

import time

# Kernel time of the nominal machine.  About what the kernel takes on an
# unloaded 2-core x86-64 cloud VM with CPython 3.11.
NOMINAL_S = 0.010


class _Field:
    """F_49 as F_7[a]/(a^2 - a - 3), coefficient tuples low degree first."""

    __slots__ = ("p", "e", "red")

    def __init__(self):
        self.p, self.e, self.red = 7, 2, (3, 1)

    def mul(self, x: tuple, y: tuple) -> tuple:
        p, e = self.p, self.e
        conv = [0] * (2 * e - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    conv[i + j] += a * b
        out = [c % p for c in conv[:e]]
        for k in range(e, 2 * e - 1):
            c = conv[k] % p
            if c:
                for i in range(e):
                    out[i] = (out[i] + c * self.red[i]) % p
        return tuple(out)

    def add(self, x: tuple, y: tuple) -> tuple:
        p = self.p
        return tuple((a + b) % p for a, b in zip(x, y))


class _Elem:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: _Field, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other):
        return other if isinstance(other, _Elem) else NotImplemented

    def __mul__(self, other: "_Elem") -> "_Elem":
        other = self._check(other)
        return _Elem(self.field, self.field.mul(self.coeffs, other.coeffs))

    def __add__(self, other: "_Elem") -> "_Elem":
        other = self._check(other)
        return _Elem(self.field, self.field.add(self.coeffs, other.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)


class _Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: _Field, coeffs):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    def __mul__(self, other: "_Poly") -> "_Poly":
        zero = _Elem(self.field, (0,) * self.field.e)
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return _Poly(self.field, out)


def kernel(size: int = 24, rounds: int = 4) -> int:
    """Fixed work: repeated products of two polynomials over F_49."""
    field = _Field()
    a = _Poly(field, [_Elem(field, (i % 7, (2 * i + 1) % 7)) for i in range(size)])
    b = _Poly(field, [_Elem(field, ((3 * i + 2) % 7, i % 7)) for i in range(size)])
    check = 0
    for _ in range(rounds):
        c = a * b
        seen = {}
        for k, x in enumerate(c.coeffs):
            seen[(k, x.coeffs)] = tuple(range(k % 4))
        check += len(seen)
        a = _Poly(field, c.coeffs[:size])
    return check


def sample() -> float:
    """Seconds one kernel run takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
