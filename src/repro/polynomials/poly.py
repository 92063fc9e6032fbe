"""Multivariate polynomials over the complex numbers.

This module is the lowest layer of the PHCpack-like substrate: a dense-free,
dictionary-backed multivariate polynomial with complex coefficients.  It is
deliberately simple — homotopy continuation only needs construction,
arithmetic, differentiation and fast evaluation — but complete enough that
every higher layer (start systems, homotopies, benchmark systems) can be
built on top of it without reaching for sympy.

The representation maps exponent tuples to coefficients::

    x**2 * y - 3j*y  ->  {(2, 1): 1+0j, (0, 1): -3j}

Evaluation of a single polynomial at one point is done term by term; bulk
evaluation (many points, or whole systems) goes through the compiled
evaluator in :mod:`repro.polynomials.system`, which vectorizes over a shared
monomial table as the optimization guides recommend.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple, Union

import numpy as np

__all__ = ["Polynomial", "variables", "constant"]

Exponent = Tuple[int, ...]
Scalar = Union[int, float, complex]

_COEFF_TOL = 0.0  # exact zero pruning only; callers decide about roundoff


def _as_complex(value: Scalar) -> complex:
    return complex(value)


class Polynomial:
    """A multivariate polynomial with complex coefficients.

    Parameters
    ----------
    coeffs:
        Mapping from exponent tuples to coefficients.  All exponent tuples
        must have length ``nvars`` and non-negative integer entries.
    nvars:
        Number of variables.  Required when ``coeffs`` is empty.
    names:
        Optional variable names used for printing; defaults to
        ``x0, x1, ...``.
    """

    __slots__ = ("_coeffs", "_nvars", "_names")

    def __init__(
        self,
        coeffs: Mapping[Exponent, Scalar] | None = None,
        nvars: int | None = None,
        names: Sequence[str] | None = None,
    ) -> None:
        coeffs = dict(coeffs or {})
        if nvars is None:
            if not coeffs:
                raise ValueError("nvars is required for an empty polynomial")
            nvars = len(next(iter(coeffs)))
        self._nvars = int(nvars)
        clean: Dict[Exponent, complex] = {}
        for expo, c in coeffs.items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != self._nvars:
                raise ValueError(
                    f"exponent {expo} has length {len(expo)}, expected {self._nvars}"
                )
            if any(e < 0 for e in expo):
                raise ValueError(f"negative exponent in {expo}")
            cc = _as_complex(c)
            if cc != 0:
                clean[expo] = clean.get(expo, 0j) + cc
                if clean[expo] == 0:
                    del clean[expo]
        self._coeffs = clean
        if names is not None:
            names = tuple(names)
            if len(names) != self._nvars:
                raise ValueError("names length must equal nvars")
        self._names = names

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def nvars(self) -> int:
        return self._nvars

    @property
    def names(self) -> Tuple[str, ...]:
        if self._names is not None:
            return self._names
        return tuple(f"x{i}" for i in range(self._nvars))

    def coefficients(self) -> Dict[Exponent, complex]:
        """A copy of the exponent -> coefficient mapping."""
        return dict(self._coeffs)

    def terms(self) -> Iterator[Tuple[Exponent, complex]]:
        return iter(self._coeffs.items())

    def __len__(self) -> int:
        return len(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, expo: Exponent) -> complex:
        return self._coeffs.get(tuple(expo), 0j)

    def total_degree(self) -> int:
        """Largest total degree of any term; -1 for the zero polynomial."""
        if not self._coeffs:
            return -1
        return max(sum(e) for e in self._coeffs)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self._coeffs)

    def constant_term(self) -> complex:
        return self._coeffs.get((0,) * self._nvars, 0j)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other._nvars != self._nvars:
                raise ValueError("polynomials have different numbers of variables")
            return other
        return constant(other, self._nvars, names=self._names)

    def __add__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        other = self._coerce(other)
        out = dict(self._coeffs)
        for expo, c in other._coeffs.items():
            out[expo] = out.get(expo, 0j) + c
        return Polynomial(out, self._nvars, self._names or other._names)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(
            {e: -c for e, c in self._coeffs.items()}, self._nvars, self._names
        )

    def __sub__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = _as_complex(other)
            return Polynomial(
                {e: c * v for e, v in self._coeffs.items()}, self._nvars, self._names
            )
        other = self._coerce(other)
        out: Dict[Exponent, complex] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                out[expo] = out.get(expo, 0j) + c1 * c2
        return Polynomial(out, self._nvars, self._names or other._names)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "Polynomial":
        if isinstance(other, Polynomial):
            raise TypeError("polynomial division is not supported; divide by scalars")
        return self * (1.0 / _as_complex(other))

    def __pow__(self, power: int) -> "Polynomial":
        if not isinstance(power, int) or power < 0:
            raise ValueError("only non-negative integer powers are supported")
        result = constant(1, self._nvars, names=self._names)
        base = self
        n = power
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, float, complex)):
            other = constant(other, self._nvars)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._nvars == other._nvars and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._nvars, frozenset(self._coeffs.items())))

    def almost_equal(self, other: "Polynomial", tol: float = 1e-10) -> bool:
        """Coefficient-wise comparison with absolute tolerance ``tol``."""
        other = self._coerce(other)
        keys = set(self._coeffs) | set(other._coeffs)
        return all(
            abs(self._coeffs.get(k, 0j) - other._coeffs.get(k, 0j)) <= tol
            for k in keys
        )

    # ------------------------------------------------------------------
    # calculus and evaluation
    # ------------------------------------------------------------------
    def diff(self, var: int) -> "Polynomial":
        """Partial derivative with respect to variable index ``var``."""
        if not 0 <= var < self._nvars:
            raise IndexError(f"variable index {var} out of range")
        out: Dict[Exponent, complex] = {}
        for expo, c in self._coeffs.items():
            k = expo[var]
            if k == 0:
                continue
            new = list(expo)
            new[var] = k - 1
            key = tuple(new)
            out[key] = out.get(key, 0j) + k * c
        return Polynomial(out, self._nvars, self._names)

    def gradient(self) -> Tuple["Polynomial", ...]:
        return tuple(self.diff(i) for i in range(self._nvars))

    def __call__(self, point: Sequence[Scalar]) -> complex:
        return self.evaluate(point)

    def evaluate(self, point: Sequence[Scalar]) -> complex:
        """Evaluate at a single point (sequence of ``nvars`` scalars)."""
        x = np.asarray(point, dtype=complex)
        if x.shape != (self._nvars,):
            raise ValueError(f"expected point of length {self._nvars}")
        total = 0j
        for expo, c in self._coeffs.items():
            term = c
            for xi, e in zip(x, expo):
                if e:
                    term *= xi**e
            total += term
        return total

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at many points; ``points`` has shape (npts, nvars)."""
        pts = np.asarray(points, dtype=complex)
        if pts.ndim != 2 or pts.shape[1] != self._nvars:
            raise ValueError(f"expected array of shape (npts, {self._nvars})")
        if not self._coeffs:
            return np.zeros(pts.shape[0], dtype=complex)
        expos = np.array(list(self._coeffs.keys()), dtype=np.int64)
        coefs = np.array(list(self._coeffs.values()), dtype=complex)
        # (npts, nterms): product over variables of x**e, vectorized
        with np.errstate(invalid="ignore"):
            powers = pts[:, None, :] ** expos[None, :, :]
        return (powers.prod(axis=2) * coefs[None, :]).sum(axis=1)

    # ------------------------------------------------------------------
    # structural helpers
    # ------------------------------------------------------------------
    def map_coefficients(self, func) -> "Polynomial":
        return Polynomial(
            {e: func(c) for e, c in self._coeffs.items()}, self._nvars, self._names
        )

    def conjugate(self) -> "Polynomial":
        return self.map_coefficients(lambda c: c.conjugate())

    def extend(self, new_nvars: int) -> "Polynomial":
        """Embed into a ring with more variables (appended at the end)."""
        if new_nvars < self._nvars:
            raise ValueError("cannot shrink the number of variables")
        pad = (0,) * (new_nvars - self._nvars)
        return Polynomial(
            {e + pad: c for e, c in self._coeffs.items()}, new_nvars, None
        )

    def substitute(self, var: int, value: Scalar) -> "Polynomial":
        """Fix variable ``var`` to ``value``; the variable count is kept."""
        val = _as_complex(value)
        out: Dict[Exponent, complex] = {}
        for expo, c in self._coeffs.items():
            k = expo[var]
            new = list(expo)
            new[var] = 0
            key = tuple(new)
            out[key] = out.get(key, 0j) + c * (val**k if k else 1)
        return Polynomial(out, self._nvars, self._names)

    def homogenize(self) -> "Polynomial":
        """Homogenize with one extra variable appended at the end."""
        d = max(0, self.total_degree())
        out: Dict[Exponent, complex] = {}
        for expo, c in self._coeffs.items():
            out[expo + (d - sum(expo),)] = c
        return Polynomial(out, self._nvars + 1, None)

    # ------------------------------------------------------------------
    # printing
    # ------------------------------------------------------------------
    def _format_coeff(self, c: complex) -> str:
        """Format a coefficient compactly for :meth:`__str__`.

        Real and imaginary parts that are exact integers print without a
        decimal point, and mixed complex coefficients get exactly one set
        of parentheses:

        >>> from repro.polynomials import variables
        >>> x, y = variables(2, ["x", "y"])
        >>> str((1 + 2j) * x * y - 3j * y + 0.5 * x)
        '(1+2j)*x*y - 3j*y + 0.5*x'
        >>> str((-1.5 - 1j) * x)
        '(-1.5-1j)*x'
        """

        def fmt(v: float) -> str:
            if math.isfinite(v) and v == int(v) and abs(v) < 1e15:
                return str(int(v))
            return repr(v)

        if c.imag == 0:
            return fmt(c.real)
        if c.real == 0:
            return f"{fmt(c.imag)}j"
        sign = "+" if c.imag >= 0 else "-"
        return f"({fmt(c.real)}{sign}{fmt(abs(c.imag))}j)"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        names = self.names
        parts = []
        for expo, c in sorted(
            self._coeffs.items(), key=lambda kv: (-sum(kv[0]), kv[0])
        ):
            factors = [
                names[i] if e == 1 else f"{names[i]}**{e}"
                for i, e in enumerate(expo)
                if e
            ]
            cs = self._format_coeff(c)
            if factors:
                if cs == "1":
                    parts.append("*".join(factors))
                elif cs == "-1":
                    parts.append("-" + "*".join(factors))
                else:
                    parts.append(cs + "*" + "*".join(factors))
            else:
                parts.append(cs)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self) -> str:
        return f"Polynomial({self!s})"


def variables(nvars: int, names: Sequence[str] | None = None) -> Tuple[Polynomial, ...]:
    """Return the ``nvars`` coordinate polynomials of a fresh ring.

    >>> x, y = variables(2, ["x", "y"])
    >>> str(x**2 - y)
    'x**2 - y'
    """
    names = tuple(names) if names is not None else None
    out = []
    for i in range(nvars):
        expo = [0] * nvars
        expo[i] = 1
        out.append(Polynomial({tuple(expo): 1}, nvars, names))
    return tuple(out)


def constant(value: Scalar, nvars: int, names: Sequence[str] | None = None) -> Polynomial:
    """The constant polynomial ``value`` in a ring with ``nvars`` variables."""
    c = _as_complex(value)
    coeffs = {(0,) * nvars: c} if c != 0 else {}
    return Polynomial(coeffs, nvars, tuple(names) if names else None)
