"""Dense univariate polynomial arithmetic over F_p.

Coefficients are stored by exponent with trailing zeros trimmed, () being
the zero polynomial.  On top of the ring operations the module builds the
split-of-unity machinery for weight class a in F_p:

* the vanishing polynomial of the squares {i^2 : i in F_p} (degree p);
* the selector polynomials, one per square class, which sum to 1 and are
  orthogonal idempotents modulo the vanishing polynomial;
* the step products  prod_{i<n} (x - i(i+a+1)), whose evaluation at the
  weight-a lowering-raising element turns x^n-like terms into ordinary
  Y^n X^n powers, and the change of basis into them.

Everything here requires p odd except the plain ring operations; the p = 2
constructions are handled upstream by fixed tables.
"""

from __future__ import annotations

from .modp import inv_mod_p

__all__ = [
    "Poly",
    "from_roots",
    "squares_poly",
    "selector_poly",
    "selector_poly_shifted",
    "yx_power_poly",
    "to_yx_power_basis",
    "min_power_by_division",
]


class Poly:
    """Polynomial over F_p; coeffs[k] is the coefficient of x**k."""

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs, p: int):
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self.p = p

    @classmethod
    def zero(cls, p: int) -> "Poly":
        return cls((), p)

    @classmethod
    def one(cls, p: int) -> "Poly":
        return cls((1,), p)

    @classmethod
    def x(cls, p: int) -> "Poly":
        return cls((0, 1), p)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.coeffs, self.p))

    def __repr__(self) -> str:
        if not self.coeffs:
            return f"Poly(0, p={self.p})"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                xs = "x" if k == 1 else f"x^{k}"
                terms.append(xs if c == 1 else f"{c}{xs}")
        return f"Poly({' + '.join(terms)}, p={self.p})"

    def _check(self, other: "Poly") -> None:
        if self.p != other.p:
            raise ValueError("mixed moduli")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.p
        return Poly(out, self.p)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs], self.p)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly([c * other for c in self.coeffs], self.p)
        self._check(other)
        if not self or not other:
            return Poly.zero(self.p)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % self.p
        return Poly(out, self.p)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        p = self.p
        rem = list(self.coeffs)
        quo = [0] * max(len(rem) - len(other.coeffs) + 1, 0)
        lead_inv = inv_mod_p(other.coeffs[-1], p)
        d = other.degree
        while len(rem) - 1 >= d and rem:
            k = len(rem) - 1 - d
            factor = rem[-1] * lead_inv % p
            quo[k] = factor
            for i, c in enumerate(other.coeffs):
                rem[k + i] = (rem[k + i] - factor * c) % p
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(quo, p), Poly(rem, p)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __call__(self, x: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = (out * x + c) % self.p
        return out

    def shifted_arg(self, c: int) -> "Poly":
        """The polynomial x |-> f(x + c)."""
        p = self.p
        shift = Poly((c, 1), p)
        out = Poly.zero(p)
        for a in reversed(self.coeffs):
            out = out * shift + Poly((a,), p)
        return out


def from_roots(roots, p: int) -> Poly:
    out = Poly.one(p)
    for r in roots:
        out = out * Poly((-r, 1), p)
    return out


def _require_odd(p: int) -> None:
    if p == 2:
        raise ValueError("square-class polynomials are undefined for p = 2")


def squares_poly(p: int) -> Poly:
    """prod_{i in F_p} (x - i^2); vanishes on every square, degree p."""
    _require_odd(p)
    return from_roots([i * i % p for i in range(p)], p)


def selector_poly(j: int, p: int) -> Poly:
    """The degree p-1 selector of the square class j^2.

    For s in 0..(p-1)/2 it takes the value 1 at x = s^2 when s = j and 0
    otherwise; the double roots make the family idempotent and orthogonal
    modulo squares_poly(p), and the selectors sum to 1 exactly.
    """
    _require_odd(p)
    half = (p - 1) // 2
    if not 0 <= j <= half:
        raise ValueError(f"selector index {j} out of range for p={p}")
    if j == 0:
        out = Poly.one(p)
        for i in range(1, half + 1):
            out = out * from_roots([i * i % p, i * i % p], p)
        return out
    out = Poly((0, 2), p) * Poly((j * j % p, 1), p)
    for i in range(1, half + 1):
        if i == j:
            continue
        out = out * from_roots([i * i % p, i * i % p], p)
    return out


def yx_power_poly(a: int, n: int, p: int) -> Poly:
    """prod_{i=0}^{n-1} (x - i(i+a+1)); the empty product for n = 0.

    Its value at the weight-a projection of YX is the projection of the
    ordinary power Y^n X^n, which makes the family a monic triangular
    basis of the polynomials of degree <= n.
    """
    if not 0 <= n <= p:
        raise ValueError(f"step count {n} out of range 0..p")
    return from_roots([i * (i + a + 1) % p for i in range(n)], p)


def selector_poly_shifted(a: int, j: int, p: int) -> Poly:
    """selector_poly(j) recentered for weight class a: x |-> psi_j(x + ((a+1)/2)^2)."""
    _require_odd(p)
    half2 = (a + 1) * inv_mod_p(2, p) % p
    return selector_poly(j, p).shifted_arg(half2 * half2 % p)


def to_yx_power_basis(f: Poly, a: int) -> tuple[int, ...]:
    """Coefficients of f (degree <= p-1) in the yx_power_poly(a, m) basis.

    Unitriangular back-substitution: the basis element of index m is monic
    of degree exactly m.  The basis is built in one ascending pass, each
    step product the previous one times its next linear factor, so the
    whole change of basis is O(p**2).
    """
    p = f.p
    if f.degree > p - 1:
        raise ValueError("degree must be at most p-1")
    steps = [Poly.one(p)]
    for i in range(p - 1):
        steps.append(steps[-1] * Poly((-(i * (i + a + 1)), 1), p))
    out = [0] * p
    rem = f
    for m in range(p - 1, -1, -1):
        c = rem.coeffs[m] if rem.degree >= m else 0
        out[m] = c
        if c:
            rem = rem - c * steps[m]
    assert not rem, "back-substitution must terminate exactly"
    return tuple(out)


def min_power_by_division(a: int, j: int, p: int) -> int:
    """Largest n such that yx_power_poly(a, n) divides the shifted selector.

    Computed by stripping the step factors off selector_poly_shifted(a, j)
    one exact division at a time.
    """
    _require_odd(p)
    g = selector_poly_shifted(a, j, p)
    n = 0
    while n < p:
        factor = Poly((-(n * (n + a + 1)) % p, 1), p)
        quo, rem = divmod(g, factor)
        if rem:
            break
        g = quo
        n += 1
    return n
