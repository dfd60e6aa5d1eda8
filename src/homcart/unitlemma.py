"""Constructive unit certificates of the form 1 + e + a e^2.

For an element e of a representable ring this module finds a such that
1 + e + a e^2 is a unit, together with the exact inverse:

* square matrices over a prime field or over the rationals, and elements of
  a finite algebra given by structure constants: a = s(e) where e is a root
  of X^m + X^(m+1) s(X); then (e + a e^2)^(m+1) = 0 and the inverse is a
  finite geometric series,
* residues mod m: a = 1 modulo the part of m whose primes divide 1 + e and
  a = 0 modulo the rest, split off with gcds, without factoring m,
* plain integers have no such a in general; `find_alpha_over_Z` decides the
  two divisibility conditions exactly and returns None otherwise.

The right-handed variant 1 + e + e^2 b needs no second construction: a is
a polynomial in e, so it commutes with e, 1 + e + e^2 a = 1 + e + a e^2,
and b = a with the same inverse.  Nothing else assumes that elements
commute.

`FpMatrix` (int64 entries in [0, p)) and `QMatrix` (`Fraction` entries)
take every field-independent method from `FieldMatrix`, on which the
searches dispatch.  The minimal polynomial comes from linear dependence
among powers of e: over F_p one `modp.solve`, over Q one integer Smith form
(`intmat.smith_normal_form`) of the powers with their denominators cleared.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from . import modp
from .intmat import IntMatrix, _integer, _modulus, smith_normal_form, smith_solve


class UnsupportedRepresentation(TypeError):
    """This ring representation cannot be handled by the requested search."""


# ---------------------------------------------------------------------------
# element representations


class FieldMatrix:
    """Square matrix over a field, with the methods that do not depend on it.

    `a` holds the entries and `p` the prime of F_p, None over Q.  A subclass
    supplies its constructor, `_reduce` (entries into canonical form),
    `_scalar` (a scalar into the field), `one` and `repr`.
    """

    __slots__ = ("p", "a")

    def _wrap(self, arr):
        out = object.__new__(type(self))
        out.p = self.p
        out.a = self._reduce(arr)
        return out

    @property
    def n(self):
        return self.a.shape[0]

    def mul(self, other):
        return self._wrap(self.a @ other.a)

    def add(self, other):
        return self._wrap(self.a + other.a)

    def scale(self, c):
        return self._wrap(self.a * self._scalar(c))

    def zero(self):
        return self._wrap(self.a * 0)

    def is_zero(self):
        return not self.a.any()

    def __eq__(self, other):
        return type(other) is type(self) and self.p == other.p and np.array_equal(self.a, other.a)

    def vec(self):
        return tuple(self.a.reshape(-1).tolist())


def _residues(entries, p: int) -> np.ndarray:
    """int64 residues mod p of integer entries of any shape, read by
    `intmat`'s integer rule: anything but an integer raises ValueError."""
    arr = np.asarray(entries)
    return (IntMatrix(arr.reshape(1, -1)).array % p).astype(np.int64).reshape(arr.shape)


class FpMatrix(FieldMatrix):
    """Square matrix over F_p, p a prime up to `modp.P_MAX`, with int64
    entries in [0, p)."""

    __slots__ = ()

    def __init__(self, p: int, entries):
        arr = np.asarray(entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("expected a square matrix")
        self.p = FpMatrix.field(p)
        self.a = _residues(arr, self.p)

    @staticmethod
    def field(p) -> int:
        """p, read by the integer rule, when it is a prime these matrices
        take; ValueError otherwise."""
        p = _integer(p, "prime")
        if p > modp.P_MAX or not modp.is_prime(p):
            raise ValueError(f"matrices over F_p need a prime p <= {modp.P_MAX}, got {p}")
        return p

    def _reduce(self, arr):
        return arr % self.p

    def _scalar(self, c):
        return _residues(c, self.p)

    def one(self):
        return self._wrap(np.eye(self.n, dtype=np.int64))

    def __repr__(self):
        return f"FpMatrix(p={self.p}, {self.a.tolist()})"


class QMatrix(FieldMatrix):
    """Square matrix over the rationals, with `Fraction` entries."""

    __slots__ = ()

    def __init__(self, entries):
        rows = [[Fraction(v) for v in r] for r in entries]
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("expected a square matrix")
        self.p = None
        self.a = np.empty((len(rows), len(rows)), dtype=object)
        self.a[:] = rows

    def _reduce(self, arr):
        return arr

    def _scalar(self, c):
        return Fraction(c)

    def one(self):
        return self._wrap(np.eye(self.n, dtype=object) * Fraction(1))

    def __repr__(self):
        return f"QMatrix({[[str(v) for v in row] for row in self.a.tolist()]})"


class FiniteAlgebra:
    """Associative unital algebra over F_p by structure constants.

    table[i][j] holds the coordinates of basis_i * basis_j; associativity and
    the two-sided identity are verified on construction.
    """

    __slots__ = ("p", "dim", "table", "one_coords")

    def __init__(self, p: int, table, one_coords):
        self.p = _integer(p, "prime")
        t = _residues(table, self.p)
        if t.ndim != 3 or t.shape[0] != t.shape[1] or t.shape[1] != t.shape[2]:
            raise ValueError("structure constants must form an n x n x n table")
        self.dim = t.shape[0]
        self.table = t
        one = _residues(one_coords, self.p)
        if one.shape != (self.dim,):
            raise ValueError("identity coordinates have wrong length")
        self.one_coords = one
        lhs = np.einsum("ijm,mkl->ijkl", t, t) % self.p
        rhs = np.einsum("jkm,iml->ijkl", t, t) % self.p
        if not np.array_equal(lhs, rhs):
            raise ValueError("structure constants are not associative")
        for i in range(self.dim):
            e = np.zeros(self.dim, dtype=np.int64)
            e[i] = 1
            if not np.array_equal(self.mul_vec(one, e), e) or not np.array_equal(self.mul_vec(e, one), e):
                raise ValueError("given coordinates are not a two-sided identity")

    def mul_vec(self, x, y):
        return np.einsum("i,j,ijk->k", x % self.p, y % self.p, self.table) % self.p

    def element(self, coords) -> "AlgebraElement":
        return AlgebraElement(self, coords)


class AlgebraElement:
    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: FiniteAlgebra, coords):
        self.algebra = algebra
        self.coords = _residues(coords, algebra.p)

    def _wrap(self, coords):
        return AlgebraElement(self.algebra, coords)

    def mul(self, other):
        return self._wrap(self.algebra.mul_vec(self.coords, other.coords))

    def add(self, other):
        return self._wrap(self.coords + other.coords)

    def scale(self, c):
        return self._wrap(self.coords * _residues(c, self.algebra.p))

    def one(self):
        return self._wrap(self.algebra.one_coords)

    def zero(self):
        return self._wrap(np.zeros(self.algebra.dim, dtype=np.int64))

    def is_zero(self):
        return not (self.coords % self.algebra.p).any()

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and other.algebra is self.algebra
            and np.array_equal(self.coords % self.algebra.p, other.coords % other.algebra.p)
        )

    def vec(self):
        return tuple(int(v) for v in self.coords)

    def __repr__(self):
        return f"AlgebraElement({list(self.coords)})"


@dataclass(frozen=True)
class ResidueElement:
    """An element of Z/m, m >= 2."""

    modulus: int
    value: int

    def __post_init__(self):
        object.__setattr__(self, "modulus", _modulus(self.modulus))
        object.__setattr__(self, "value", _integer(self.value, "residue") % self.modulus)


# ---------------------------------------------------------------------------
# linear dependence over the base field


def _solve_dependence(columns, target, p: int | None):
    """Coefficients c with sum c_j columns_j = target over F_p or Q, or None.

    Over Q, with denominators cleared, c = V D^-1 U target from one Smith
    form U A V = D of the columns: `smith_solve` of the target times the
    last invariant factor, which every d_k divides.  The columns 1, e, ...,
    e^(k-1) are independent until the first relation, so c is unique.
    """
    if p is not None:
        # vec() over F_p is canonical, so it fits int64
        got = modp.solve(np.array(columns, dtype=np.int64).T, np.array(target, dtype=np.int64), p)
        return None if got is None else [int(v) for v in got[0]]
    scale = lcm(*(Fraction(v).denominator for col in (*columns, target) for v in col))
    a = np.array([[int(v * scale) for v in col] for col in columns], dtype=object).T
    s = smith_normal_form(IntMatrix(a))
    diag = s.diagonal()
    top = max(diag, default=0) or 1
    b = np.array([int(v * scale * top) for v in target], dtype=object).reshape(-1, 1)
    x = smith_solve(s.u.array, diag, s.v.array, b)
    return None if x is None else [Fraction(int(v), top) for v in x[:, 0]]


@dataclass(frozen=True)
class PolynomialRelation:
    """e is a root of X^m + X^(m+1) s(X); s given by its coefficient list.

    Normalized so the lowest nonzero coefficient of the minimal polynomial
    is 1; m is that lowest exponent.
    """

    m: int
    s_coeffs: tuple

    def evaluate(self, e):
        """e^m + e^(m+1) * s(e); zero exactly when the relation holds."""
        acc = _power(e, self.m)
        if self.s_coeffs:
            acc = acc.add(_power(e, self.m + 1).mul(self.s_at(e)))
        return acc

    def s_at(self, e):
        """s(e) in the representation of e."""
        out = e.zero()
        pw = e.one()
        for c in self.s_coeffs:
            out = out.add(pw.scale(c))
            pw = pw.mul(e)
        return out


def _power(e, k: int):
    out = e.one()
    for _ in range(k):
        out = out.mul(e)
    return out


def _field_of(e) -> int | None:
    if isinstance(e, FieldMatrix):
        return e.p
    if isinstance(e, AlgebraElement):
        return e.algebra.p
    raise UnsupportedRepresentation(f"no base field for {type(e).__name__}")


def polynomial_relation(e) -> PolynomialRelation:
    """Minimal polynomial of e, normalized to the X^m + X^(m+1) s(X) shape.

    Works for matrices over F_p or Q and for finite-algebra elements: powers
    of e are accumulated until they become linearly dependent.
    """
    p = _field_of(e)
    powers = [e.one()]
    while True:
        nxt = powers[-1].mul(e)
        coeffs = _solve_dependence([pw.vec() for pw in powers], nxt.vec(), p)
        if coeffs is not None:
            # minimal polynomial X^k - sum c_j X^j, scaled so that its lowest
            # nonzero coefficient, at X^m, is 1
            poly = [-c for c in coeffs] + [1]
            m = next(i for i, c in enumerate(poly) if c)
            lead = poly[m]
            s = tuple(c * pow(lead, -1, p) % p if p else c / lead for c in poly[m + 1 :])
            rel = PolynomialRelation(m=m, s_coeffs=s)
            if not rel.evaluate(e).is_zero():
                raise AssertionError("computed relation does not annihilate the element")
            return rel
        powers.append(nxt)


@dataclass(frozen=True)
class UnitCertificate:
    """Verified unit 1 + e + a e^2 (or 1 + e + e^2 b for the right variant).

    `inverse` is exact in the same representation; `nilpotency_exponent` is
    the least k with (e + a e^2)^k = 0 when that element is nilpotent.
    """

    variant: str  # "left" (alpha) or "right" (beta)
    coefficient: object
    unit: object
    inverse: object
    nilpotency_exponent: int | None = None
    relation: PolynomialRelation | None = None


def _verify_unit(unit, inverse) -> bool:
    one = unit.one()
    return unit.mul(inverse) == one and inverse.mul(unit) == one


def _certificate_from_relation(e) -> UnitCertificate:
    rel = polynomial_relation(e)
    alpha = rel.s_at(e)
    eta = e.add(alpha.mul(e).mul(e))
    unit = e.one().add(eta)
    power = eta.one()
    nil = None
    for k in range(0, rel.m + 2):
        if power.is_zero():
            nil = k
            break
        power = power.mul(eta)
    if nil is None:
        raise AssertionError("e + a e^2 failed to be nilpotent at exponent m+1")
    inverse = eta.one()
    term = eta.one()
    for _ in range(nil - 1):
        term = term.mul(eta).scale(-1)
        inverse = inverse.add(term)
    if not _verify_unit(unit, inverse):
        raise AssertionError("inverse verification failed")
    return UnitCertificate(
        variant="left",
        coefficient=alpha,
        unit=unit,
        inverse=inverse,
        nilpotency_exponent=nil,
        relation=rel,
    )


def _residue_alpha(e: ResidueElement) -> UnitCertificate:
    """a = 1 modulo the part m1 of m whose primes divide 1 + v, and a = 0
    modulo the rest m2: then 1 + v + a v^2 is 1 + v + v^2 = 1 mod each prime
    of m1 (there v = -1) and 1 + v, a unit, mod each prime of m2.  The split
    m = m1 m2 is found with gcds, without factoring m."""
    m, v = e.modulus, e.value
    m2, g = m, gcd(m, 1 + v)
    while g > 1:
        m2 //= g
        g = gcd(m2, g)
    alpha = m2 * pow(m2, -1, m // m2) % m
    unit_val = (1 + v + alpha * v * v) % m
    inverse_val = pow(unit_val, -1, m)
    eta = (v + alpha * v * v) % m
    nil = None
    acc = 1
    for k in range(0, m.bit_length() * 2 + 2):
        if acc % m == 0:
            nil = k
            break
        acc = (acc * eta) % m
    return UnitCertificate(
        variant="left",
        coefficient=ResidueElement(m, alpha),
        unit=ResidueElement(m, unit_val),
        inverse=ResidueElement(m, inverse_val),
        nilpotency_exponent=nil,
    )


def find_alpha(e) -> UnitCertificate:
    """a with 1 + e + a e^2 a unit, with exact inverse.

    Supports matrices over F_p and Q, finite-algebra elements, and residues
    mod m.  Plain integers are refused: use `find_alpha_over_Z`, which can
    and does answer "no such a".
    """
    if isinstance(e, (FieldMatrix, AlgebraElement)):
        return _certificate_from_relation(e)
    if isinstance(e, ResidueElement):
        return _residue_alpha(e)
    if isinstance(e, int):
        raise UnsupportedRepresentation(
            "integers are not covered by the construction; use find_alpha_over_Z"
        )
    raise UnsupportedRepresentation(f"unsupported representation {type(e).__name__}")


def find_beta(e) -> UnitCertificate:
    """b with 1 + e + e^2 b a unit: the `find_alpha` certificate, as its
    coefficient a commutes with e (module docstring).  Representations are
    refused as `find_alpha` refuses them.
    """
    return replace(find_alpha(e), variant="right")


def find_alpha_over_Z(e: int) -> int | None:
    """Integer a with 1 + e + a e^2 in {1, -1}, or None.

    The units of Z are just +-1, so this is a pair of exact divisibility
    tests; for |e| >= 3 there is never a solution.
    """
    e = int(e)
    if e == 0:
        return 0
    sq = e * e
    if (-e) % sq == 0:
        return (-e) // sq
    if (-2 - e) % sq == 0:
        return (-2 - e) // sq
    return None
