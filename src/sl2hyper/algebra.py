"""Normal-form elements of the divided-power algebra of sl2 in characteristic p.

An element is a sparse sum over pairs (m, m') of terms

    Y^(m) * f * X^(m'),        0 <= m, m' < p**r,

where X^(k), Y^(k) are divided powers and f lies in the torus subalgebra
spanned by the binomials C(H, n) with n < p**rprime.  The torus factor is
stored in *evaluation form*: a length p**rprime integer vector whose entry
at w is the eigenvalue of f on a vector of weight w (weights live mod
p**rprime).  Evaluation form turns torus multiplication into pointwise
products, and moving f across X^(n) or Y^(n) into index shifts:

    f * X^(n) = X^(n) * shift(f, +2n),    f * Y^(n) = Y^(n) * shift(f, -2n),

where shift(f, s)(w) = f(w + s).  The binomial-coefficient basis is
recovered through the unitriangular Pascal matrix C(w, n), used only by
`format_element`, the F_p row coordinates of `pims.IdealBasis` (census,
`left_ideal_span`, verify's split-product rank) and verify's round trips;
`_pascal_rows` applies C by Lucas's theorem, with no table beyond ctx.pascal.

`left_weight` is the package's one reader of torus weights, from supports;
`weight_coords` reads an element of B_nu (`verify`) into coordinates by it,
and `from_weight_coords`, its inverse, builds the element of B_nu with given
coordinates as one block (`idempotents` builds every idempotent by it).

An element's torus factors are the rows of one (k, q) block, reduced mod
p in one pass.  The block sits in a read-only bytes buffer that cannot be
made writeable again, so a shared (cached) element cannot be changed
through its arrays.  The element stores its sorted keys (`_keys`) and the
block (`_block`), nothing more: `terms` is a read-only mapping of the keys
to row views of the block, built on each read.  One finishing step,
`_finish`, drops the zero rows with their keys and freezes the block; for
a batch of products it freezes them all at once and splits the result by
product.  A mapping passed to `HyperElem` reaches it through `_canon`,
which checks each key and vector and stacks them; a product, a scalar
multiple, a negation, `fr`, `fr_prime`, `embed` and the constructors
`one`, `gen_x`, `gen_y` and `pbw_elem` form their result's block in key
order and hand it over directly.  Inside this module the readers of an
element's terms read `_keys` and `_block`, not `terms`, and
`element_to_json` reads the block with one `tolist`.

*Storage lemma.*  Every stored entry lies in [0, p).  Since q = p**rprime <=
`_MAX_Q` = 4096 and rprime >= 1, p <= 4093 < 2**15, so int16 (`_STORE`)
holds every entry exactly.  Blocks are stored as int16 and all arithmetic on
them is done in int64: the kernel widens its source once per pass, and a
scalar multiple widens the block first, since (p - 1)**2 overflows int16
once p >= 182.  A sum of two entries stays below 2**13, and a negated entry
above -2**12.

A (term pair, i) contribution has coefficient C(m1+m2-i, m1) C(m1'+m2'-i, m2')
mod p.  Once m1 + (m2 - i) reaches p**r the base-p addition carries, and
Kummer gives C(m1+m2-i, m1) = 0; likewise for the primed pair.  So i starts
at max(0, m1 + m2 - p**r + 1, m1' + m2' - p**r + 1), the *Kummer bound*.

Multiplication is one batched kernel, `products`, and `HyperElem.__mul__`
is its one-pair case.  A pass of the kernel collects the (term pair, i)
contributions with k != 0 mod p of each of its pairs as plain integer
lists: shifts, row offsets, i, k and the output slot, one slot per key of
each product.  It copies each distinct operand's block once into one
source, forms every middle factor at once by fancy-index gathers from that
source at (w + s) % q and the Pascal table at (w + s) % p**r (i < p**r, so
the periodicity lemma of `verify` applies), reduces them mod p, adds them
row by row into their slots with one `np.add.at`, and hands the slots to
one `_finish`, which splits them by pair.  A term pair whose shifted
supports are disjoint needs no test: its contributions are zero rows, and
a slot that gets nothing else is a zero row, which `_finish` drops.

A pass ends after the pair with which its contributions times q reach
`PASS_ENTRIES` (2**14), so passes end between pairs.  Inside a pass the
gathers, products and `np.add.at` run in chunks of at most
max(1, `PASS_ENTRIES` // q) contributions, all into the pass's one
accumulator.  So a pass's index and gather arrays (about 48 bytes per
entry) stay under a MiB whatever the batch's length, and also when one
large product fills a pass alone.  The products of one pass share one
read-only buffer, so a kept product keeps that buffer alive.
"""

from __future__ import annotations

import functools
import types
from dataclasses import dataclass

import numpy as np

from .modp import factorial_mod_p, is_prime

__all__ = [
    "AlgebraCtx",
    "HyperElem",
    "products",
    "zero",
    "one",
    "gen_x",
    "gen_y",
    "gen_h_binom",
    "pbw_elem",
    "x_power",
    "y_power",
    "shift_weightfn",
    "degree_decompose",
    "left_weight",
    "weight_coords",
    "from_weight_coords",
    "weightfn_to_coeffs",
    "coeffs_to_weightfn",
    "fr",
    "fr_prime",
    "embed",
    "element_to_json",
    "element_from_json",
    "format_element",
]


# Largest q = p**rprime a context may have.  It bounds the q-wide rows: the
# element blocks (q entries of _STORE per term) and the kernel's gathers.
_MAX_Q = 4096

# Storage dtype of the element blocks (storage lemma, module docstring).
# Signed, as `__neg__` negates a block before reducing it mod p.
_STORE = np.int16
assert _MAX_Q < 2**15

# A pass of the product kernel ends once its contributions times q reach
# this many entries, and its gathers run in chunks of at most this many
# entries (module docstring).
PASS_ENTRIES = 1 << 14


@functools.lru_cache(maxsize=None)
def _pascal(p: int, size: int) -> np.ndarray:
    # C(w, n) mod p for 0 <= w, n < size; lower unitriangular; shared, so read-only
    out = np.zeros((size, size), dtype=np.int64)
    out[:, 0] = 1
    for w in range(1, size):
        out[w, 1:] = (out[w - 1, 1:] + out[w - 1, :-1]) % p
    return np.ndarray(out.shape, np.int64, out.tobytes())


@dataclass(frozen=True)
class AlgebraCtx:
    """Ambient sizes: divided powers below p**r, torus binomials below p**rprime."""

    p: int
    r: int
    rprime: int

    def __post_init__(self):
        # bound q step by step, so neither a huge rprime nor a huge p costs
        # anything below (p < 2 is left to the primality check)
        if self.p > 1:
            q = 1
            for _ in range(max(self.rprime, 1)):
                q *= self.p
                if q > _MAX_Q:
                    raise ValueError(
                        f"context too large: need p**rprime <= {_MAX_Q}, "
                        f"got p={self.p}, rprime={self.rprime}"
                    )
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if not 1 <= self.r <= self.rprime:
            raise ValueError(f"need 1 <= r <= rprime, got r={self.r}, rprime={self.rprime}")

    # cached in the instance dict; equality and hashing stay on the fields
    @functools.cached_property
    def q(self) -> int:
        """Number of weight classes, p**rprime."""
        return self.p**self.rprime

    @functools.cached_property
    def xy_range(self) -> int:
        """Exclusive bound p**r on divided-power exponents."""
        return self.p**self.r

    @property
    def pascal(self) -> np.ndarray:
        return _pascal(self.p, self.xy_range)


def _canon(ctx: AlgebraCtx, terms) -> tuple[tuple, np.ndarray]:
    """Validate a mapping (m, m') -> torus factor, then `_finish` it in key order.

    This is the path of dicts built outside the kernel: each key's range and
    each vector's length are checked, and the vectors are stacked once.
    """
    p, q = ctx.p, ctx.q
    keys = sorted(terms)
    vecs = []
    for key in keys:
        _check_key(ctx, key)
        vec = np.asarray(terms[key], dtype=np.int64)
        if vec.shape != (q,):
            raise ValueError(f"weight function must have length {q}")
        vecs.append(vec)
    return _finish([keys], np.array(vecs, dtype=np.int64).reshape(len(keys), q) % p)[0]


def _check_key(ctx: AlgebraCtx, key: tuple[int, int]) -> None:
    m, mp_ = key
    if not (0 <= m < ctx.xy_range and 0 <= mp_ < ctx.xy_range):
        raise ValueError(f"exponent pair {key} out of range for {ctx}")


def _finish(runs: list, block: np.ndarray) -> list[tuple[tuple, np.ndarray]]:
    """Keys and frozen block of each run of rows of `block`, reduced mod p.

    Run j is the sorted keys runs[j] of the next len(runs[j]) rows.  A zero
    row is dropped with its key, and the kept rows of every run are copied
    into one read-only bytes buffer, on which each run's block is an array
    of its own.  Nothing is checked: `_canon` validates a mapping from
    outside, and the callers of `_from_block` and `_products` build theirs
    in key order.
    """
    nonzero = block.any(axis=1)
    flags = None
    if not nonzero.all():
        flags = iter(nonzero.tolist())
        block = block[nonzero]
    # backed by immutable bytes: neither a row nor its base can be made writeable
    data, width = block.astype(_STORE, copy=False).tobytes(), block.shape[1]
    out = []
    offset = 0
    for keys in runs:
        keys = tuple(keys if flags is None else (key for key in keys if next(flags)))
        part = np.ndarray((len(keys), width), _STORE, data, offset)
        offset += part.nbytes
        out.append((keys, part))
    return out


class HyperElem:
    """Sparse normal form: maps (m, m') to the torus factor's evaluation vector.

    The element stores the sorted keys `_keys` and one read-only block
    `_block`, whose row k is the torus factor of key k; `terms` maps each key
    to its row, a view of the block.  The attributes cannot be rebound or
    deleted, so keys and rows cannot drift apart, and a cached element, the
    shared zero included, cannot be changed in place.
    """

    __slots__ = ("ctx", "_keys", "_block")

    def __init__(self, ctx: AlgebraCtx, terms):
        self._freeze(ctx, *_canon(ctx, terms))

    def _freeze(self, ctx: AlgebraCtx, keys: tuple, block: np.ndarray) -> "HyperElem":
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "_keys", keys)
        object.__setattr__(self, "_block", block)
        return self

    @property
    def terms(self) -> types.MappingProxyType:
        """Read-only mapping (m, m') -> torus factor, the rows of `_block`
        as views; built anew on each read, so read it once per use."""
        return types.MappingProxyType(dict(zip(self._keys, self._block)))

    def __setattr__(self, name, value):
        raise AttributeError(f"HyperElem is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"HyperElem is immutable: cannot delete {name!r}")

    def is_zero(self) -> bool:
        return not self._keys

    def __eq__(self, other):
        if not isinstance(other, HyperElem):
            return NotImplemented
        if self.ctx != other.ctx or self._keys != other._keys:
            return False
        return np.array_equal(self._block, other._block)

    def __repr__(self) -> str:
        return f"HyperElem({self.ctx.p},{self.ctx.r},{self.ctx.rprime}; {len(self._keys)} terms)"

    def __add__(self, other: "HyperElem") -> "HyperElem":
        self._check(other)
        p = self.ctx.p
        out = dict(zip(self._keys, self._block))
        for k, v in zip(other._keys, other._block):
            out[k] = (out[k] + v) % p if k in out else v
        return HyperElem(self.ctx, out)

    def __neg__(self) -> "HyperElem":
        return _from_block(self.ctx, self._keys, -self._block % self.ctx.p)

    def __sub__(self, other: "HyperElem") -> "HyperElem":
        return self + (-other)

    def _check(self, other: "HyperElem") -> None:
        if self.ctx != other.ctx:
            raise ValueError(f"context mismatch: {self.ctx} vs {other.ctx}")

    def __mul__(self, other):
        if isinstance(other, (int, np.integer)):
            p = self.ctx.p
            block = self._block.astype(np.int64) * (int(other) % p)
            return _from_block(self.ctx, self._keys, block % p)
        if not isinstance(other, HyperElem):
            return NotImplemented
        return _products([(self, other)])[0]

    def __rmul__(self, other):
        if isinstance(other, (int, np.integer)):
            return self.__mul__(other)
        return NotImplemented


def _from_block(ctx: AlgebraCtx, keys, block: np.ndarray) -> HyperElem:
    """The element with sorted in-range `keys` and torus factors the rows of
    `block`, reduced mod p; see `_elements`."""
    return _elements(ctx, [keys], block)[0]


def _elements(ctx: AlgebraCtx, runs: list, block: np.ndarray) -> list[HyperElem]:
    """One element per run of rows of `block` (see `_finish`), all through
    one `_finish`; an empty result is `zero(ctx)`."""
    return [
        object.__new__(HyperElem)._freeze(ctx, keys, part) if keys else zero(ctx)
        for keys, part in _finish(runs, block)
    ]


def products(pairs) -> list[HyperElem]:
    """[u * v for u, v in pairs], formed in batched kernel passes (module
    docstring).  Raises TypeError for an item that is not a HyperElem, and
    ValueError unless every element lies in one context."""
    return _products(list(pairs))


def _products(pairs: list) -> list[HyperElem]:
    # `HyperElem.__mul__` is the one-pair case.  It calls this function, not
    # `products`, so a tracer that re-binds public names (perfbench) keeps
    # the whole product inside the `*` span.
    if not pairs:
        return []
    ctx = pairs[0][0].ctx
    for pair in pairs:
        for w in pair:
            if not isinstance(w, HyperElem):
                raise TypeError(f"products takes pairs of HyperElem, got {type(w).__name__}")
            if w.ctx is not ctx and w.ctx != ctx:
                raise ValueError(f"context mismatch: {ctx} vs {w.ctx}")
    p, q, nmax = ctx.p, ctx.q, ctx.xy_range
    pas = ctx.pascal
    out: list[HyperElem] = []
    # per contribution: shifts into f1, f2 and the Pascal column, the flat
    # offsets of f1's and f2's rows in the pass's source and the column i,
    # the coefficient k, the output slot
    rows: list[int] = []
    order: list[int] = []  # the pass's output slots, pair by pair in key order
    runs: list[list] = []  # each pair's sorted output keys
    offsets: dict[int, int] = {}  # id of an operand -> its flat offset in the source
    blocks: list[np.ndarray] = []  # the pass's distinct operands, each once
    size = 0  # entries in blocks
    for u, v in pairs:
        for w in (u, v):
            if id(w) not in offsets:
                offsets[id(w)] = size
                blocks.append(w._block)
                size += w._block.size
        off1, off2 = offsets[id(u)], offsets[id(v)]
        base = len(order)
        slots: dict[tuple[int, int], int] = {}
        for row1, (m1, m1p) in enumerate(u._keys):
            for row2, (m2, m2p) in enumerate(v._keys):
                # Kummer bound: below it m1 + (m2 - i) or m2' + (m1' - i)
                # carries out of the top base-p digit, so k = 0 mod p
                lo = max(0, m1 + m2 - nmax + 1, m1p + m2p - nmax + 1)
                for i in range(lo, min(m1p, m2) + 1):
                    mm = m1 + m2 - i
                    mmp = m1p + m2p - i
                    k = pas.item(mm, m1) * pas.item(mmp, m2p) % p
                    if k == 0:
                        continue
                    # the term Y^(mm) mid X^(mmp) with
                    # mid(w) = h(w + 2i) C(w - c, i) k,  c = m1' + m2 - 2i
                    rows += (
                        2 * (i - m2) % q,
                        2 * (i - m1p) % q,
                        (2 * i - m1p - m2) % q,
                        off1 + row1 * q,
                        off2 + row2 * q,
                        i,
                        k,
                        base + slots.setdefault((mm, mmp), len(slots)),
                    )
        keys = sorted(slots)
        runs.append(keys)
        order += [base + slots[key] for key in keys]
        # the bound is checked between pairs; `_kernel_pass` chunks a large pair
        if len(rows) * q >= 8 * PASS_ENTRIES:
            out += _kernel_pass(ctx, blocks, rows, order, runs)
            rows, order, runs, offsets, blocks, size = [], [], [], {}, [], 0
    if runs:
        out += _kernel_pass(ctx, blocks, rows, order, runs)
    return out


def _kernel_pass(ctx: AlgebraCtx, blocks: list, rows: list, order: list, runs: list) -> list[HyperElem]:
    """Every contribution of a pass at once; one element per run (`_products`)."""
    if not rows:
        return [zero(ctx)] * len(runs)
    p, q, n = ctx.p, ctx.q, ctx.xy_range
    cols = np.array(rows, dtype=np.int64).reshape(-1, 8).T
    # exact in int64: four factors below p < 2**12 multiply to less than
    # 2**48, and a slot sums at most one row per term pair of its pair, so
    # at most q**4 <= 2**48 rows below p; the int16 blocks are widened here
    src = np.concatenate(blocks, dtype=np.int64).ravel()
    pas = ctx.pascal.ravel()
    acc = np.zeros((len(order), q), dtype=np.int64)
    step = max(1, PASS_ENTRIES // q)  # contributions per chunk (module docstring)
    for lo in range(0, cols.shape[1], step):
        chunk = cols[:, lo : lo + step]
        # flat indices of f1(w + s1), f2(w + s2) and C((w + s3) % p**r, i), all w at once
        idx = chunk[:3, :, None] + np.arange(q)
        idx[:2] %= q
        idx[2] %= n
        idx[2] *= n
        idx += chunk[3:6, :, None]
        mid = src[idx[0]] * src[idx[1]]
        mid *= pas[idx[2]]
        mid *= chunk[6, :, None]
        mid %= p
        np.add.at(acc, chunk[7], mid)
    acc = acc.take(order, axis=0)
    acc %= p
    # `_finish` drops zero rows (disjoint supports, or sums that cancel)
    return _elements(ctx, runs, acc)


@functools.lru_cache(maxsize=None)
def zero(ctx: AlgebraCtx, /) -> HyperElem:
    """The zero element: one shared instance per context, also returned by
    every product whose result is empty.  (Positional only: the cache would
    key a keyword call apart and make a second zero.)"""
    return HyperElem(ctx, {})


def one(ctx: AlgebraCtx) -> HyperElem:
    return _from_block(ctx, [(0, 0)], np.ones((1, ctx.q), dtype=_STORE))


def gen_x(n: int, ctx: AlgebraCtx) -> HyperElem:
    """The divided power X^(n)."""
    if not 0 <= n < ctx.xy_range:
        raise ValueError(f"X exponent {n} out of range for {ctx}")
    return _from_block(ctx, [(0, n)], np.ones((1, ctx.q), dtype=_STORE))


def gen_y(n: int, ctx: AlgebraCtx) -> HyperElem:
    """The divided power Y^(n)."""
    if not 0 <= n < ctx.xy_range:
        raise ValueError(f"Y exponent {n} out of range for {ctx}")
    return _from_block(ctx, [(n, 0)], np.ones((1, ctx.q), dtype=_STORE))


def gen_h_binom(n: int, ctx: AlgebraCtx) -> HyperElem:
    """The torus binomial C(H, n)."""
    return pbw_elem(0, n, 0, ctx)


def pbw_elem(m: int, n: int, mprime: int, ctx: AlgebraCtx) -> HyperElem:
    """The basis element Y^(m) C(H, n) X^(m')."""
    if not 0 <= n < ctx.q:
        raise ValueError(f"torus index {n} out of range for {ctx}")
    _check_key(ctx, (m, mprime))
    return _from_block(ctx, [(m, mprime)], _pascal_rows(np.eye(1, ctx.q, n, dtype=_STORE), ctx))


def x_power(k: int, ctx: AlgebraCtx) -> HyperElem:
    """The ordinary power X^k = k! X^(k); requires k < p."""
    return factorial_mod_p(k, ctx.p) * gen_x(k, ctx)


def y_power(k: int, ctx: AlgebraCtx) -> HyperElem:
    """The ordinary power Y^k = k! Y^(k); requires k < p."""
    return factorial_mod_p(k, ctx.p) * gen_y(k, ctx)


def shift_weightfn(f: np.ndarray, s: int, ctx: AlgebraCtx) -> np.ndarray:
    """The vector w |-> f((w + s) mod p**rprime)."""
    return f[(np.arange(ctx.q) + s) % ctx.q]


def degree_decompose(u: HyperElem) -> dict[int, HyperElem]:
    """Split u by degree d = m' - m; the parts sum back to u."""
    parts: dict[int, dict] = {}
    for (m, mp_), f in zip(u._keys, u._block):
        parts.setdefault(mp_ - m, {})[(m, mp_)] = f
    return {d: HyperElem(u.ctx, t) for d, t in sorted(parts.items())}


def left_weight(e: HyperElem) -> tuple[int, np.ndarray]:
    """(nu, c): the weight with mu_nu e = e, and each term's value at it.

    As mu_nu Y^(m) = Y^(m) mu_(nu+2m), mu_nu e = e exactly when each term
    Y^(m) f X^(m') has f nonzero at (nu + 2m) mod q alone; c[k] is the k-th
    term's f there.  Raises ValueError unless e is a nonzero weight vector.
    """
    if e.is_zero():
        raise ValueError("is zero")
    block, q = e._block, e.ctx.q
    ms = np.array([m for m, _ in e._keys])
    at = (int(block[0].argmax()) + 2 * (ms - ms[0])) % q
    c = block[np.arange(len(ms)), at]
    # argmax finds row 0's nonzero entry when it is the only one, as required
    if np.count_nonzero(block) != len(ms) or not c.all():
        raise ValueError("is not a torus weight vector")
    return int(at[0] - 2 * ms[0]) % q, c


def weight_coords(e: HyperElem) -> tuple[int, np.ndarray]:
    """(nu, x) with e = sum_m x[m] beta_m in B_nu (weight-space lemma); raises
    ValueError unless e has degree 0 and `left_weight` reads it."""
    for m, mp_ in e._keys:
        if m != mp_:
            raise ValueError(f"has a term of degree {mp_ - m}")
    nu, c = left_weight(e)
    x = np.zeros(e.ctx.xy_range, dtype=np.int64)
    x[[m for m, _ in e._keys]] = c
    return nu, x


def from_weight_coords(ctx: AlgebraCtx, nu: int, x) -> HyperElem:
    """The element sum_m x[m] beta_m of B_nu, where beta_m = Y^(m) delta_(nu+2m)
    X^(m): the inverse of `weight_coords`.  x has length p**r and is read mod
    p; an all-zero x gives `zero(ctx)`.  Raises ValueError for another length
    of x or nu outside 0..q-1."""
    x = np.asarray(x, dtype=np.int64)
    if x.shape != (ctx.xy_range,):
        raise ValueError(f"coordinate vector must have length {ctx.xy_range}")
    if not 0 <= nu < ctx.q:
        raise ValueError(f"weight {nu} out of range 0..{ctx.q - 1}")
    x = x % ctx.p
    ms = np.flatnonzero(x)
    block = np.zeros((len(ms), ctx.q), dtype=_STORE)
    block[np.arange(len(ms)), (nu + 2 * ms) % ctx.q] = x[ms]
    return _from_block(ctx, [(m, m) for m in ms.tolist()], block)


def _pascal_rows(block: np.ndarray, ctx: AlgebraCtx) -> np.ndarray:
    """Rows f C^T mod p, C the q x q Pascal matrix, for a block f with entries
    in 0..p-1.  By Lucas C = C_p (x) ... (x) C_p (x) ctx.pascal, one factor
    C_p = ctx.pascal[:p, :p] per digit above the r-th; each is one product."""
    p, n = ctx.p, ctx.xy_range
    out = block.reshape(-1, n) @ ctx.pascal.T % p
    for j in range(ctx.rprime - ctx.r):
        out = ctx.pascal[:p, :p] @ out.reshape(-1, p, n * p**j) % p
    return out.reshape(block.shape)


def weightfn_to_coeffs(f: np.ndarray, ctx: AlgebraCtx) -> np.ndarray:
    """Coefficients c with f(w) = sum_n c[n] C(w, n); f is one vector, or a
    (k, q) block converted row by row.

    The inverse of the Pascal matrix C is D C D with D = diag((-1)^w), so
    c = D C D f needs no second table.  A row f gives the row f D C^T D.
    """
    f = np.asarray(f, dtype=np.int64)
    if f.shape[-1:] != (ctx.q,):
        raise ValueError(f"weight function must have length {ctx.q}")
    sign = 1 - 2 * (np.arange(ctx.q, dtype=np.int64) & 1)
    return sign * _pascal_rows(sign * f % ctx.p, ctx) % ctx.p


def coeffs_to_weightfn(c: np.ndarray, ctx: AlgebraCtx) -> np.ndarray:
    """Evaluation vector of sum_n c[n] C(H, n); a (k, q) block converts by rows."""
    c = np.asarray(c, dtype=np.int64)
    if c.shape[-1:] != (ctx.q,):
        raise ValueError(f"coefficient vector must have length {ctx.q}")
    return _pascal_rows(c % ctx.p, ctx)


def fr(u: HyperElem) -> HyperElem:
    """The Frobenius map: divides all exponents by p, killing non-multiples.

    C(H, n) goes to C(H, n/p) if p | n, else 0; in evaluation form that is
    f[::p] (Lucas lemma: p*w ends in base-p digit 0, so C(p*w, n) is
    C(w, n/p) mod p if p | n, else 0)."""
    ctx = u.ctx
    if ctx.r < 2:
        raise ValueError("Frobenius target context would be degenerate for r = 1")
    p = ctx.p
    tgt = AlgebraCtx(p, ctx.r - 1, ctx.rprime - 1)
    # row -> new key; dividing by p keeps the kept keys in order
    kept = {
        row: (m // p, mp_ // p) for row, (m, mp_) in enumerate(u._keys) if not (m % p or mp_ % p)
    }
    return _from_block(tgt, list(kept.values()), u._block[list(kept), ::p])


def fr_prime(u: HyperElem) -> HyperElem:
    """The linear splitting of the Frobenius: multiplies all exponents by p.

    On the torus factor this is C(H, n) |-> C(H, np), which in evaluation
    form reads off the base-p digit quotient: g(w) = f(w // p).
    """
    ctx = u.ctx
    p = ctx.p
    tgt = AlgebraCtx(p, ctx.r + 1, ctx.rprime + 1)
    keys = [(m * p, mp_ * p) for m, mp_ in u._keys]
    return _from_block(tgt, keys, np.repeat(u._block, p, axis=1))


def embed(u: HyperElem, target: AlgebraCtx) -> HyperElem:
    """The natural inclusion into a larger context."""
    ctx = u.ctx
    if target.p != ctx.p or target.r < ctx.r or target.rprime < ctx.rprime:
        raise ValueError(f"cannot embed {ctx} into {target}")
    if target == ctx:
        return u
    reps = target.p ** (target.rprime - ctx.rprime)
    return _from_block(target, u._keys, np.tile(u._block, (1, reps)))


def element_to_json(u: HyperElem) -> dict:
    """JSON form; terms sorted by (yexp, xexp), torus factors in evaluation form.

    The `h_eval` lists come from one `tolist` of the block, not one per row.
    """
    return {
        "p": u.ctx.p,
        "r": u.ctx.r,
        "rprime": u.ctx.rprime,
        "terms": [
            {"yexp": m, "xexp": mp_, "h_eval": row}
            for (m, mp_), row in zip(u._keys, u._block.tolist())
        ],
    }


def _json_int(value, what: str) -> int:
    # JSON numbers and strings are not coerced: 1.7, true and "1" are errors
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _json_field(obj, key: str, what: str):
    # malformed structure is a ValueError naming the field, never a
    # KeyError or TypeError
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{what} has no field {key!r}")
    return obj[key]


def element_from_json(data: dict) -> HyperElem:
    ctx = AlgebraCtx(
        *(_json_int(_json_field(data, k, "element"), k) for k in ("p", "r", "rprime"))
    )
    items = _json_field(data, "terms", "element")
    if not isinstance(items, list):
        raise ValueError(f"terms must be a list, got {type(items).__name__}")
    terms: dict[tuple[int, int], np.ndarray] = {}
    for t in items:
        key = tuple(_json_int(_json_field(t, k, "term"), k) for k in ("yexp", "xexp"))
        if key in terms:
            raise ValueError(f"duplicate term {key}")
        h_eval = _json_field(t, "h_eval", "term")
        if not isinstance(h_eval, list):
            raise ValueError(f"h_eval must be a list, got {h_eval!r}")
        vals = [_json_int(v, "h_eval entry") % ctx.p for v in h_eval]
        terms[key] = np.array(vals, dtype=np.int64)
    return HyperElem(ctx, terms)


def _format_weightfn(f: np.ndarray, ctx: AlgebraCtx) -> str:
    coeffs = weightfn_to_coeffs(f, ctx)
    parts = []
    for n in np.nonzero(coeffs)[0]:
        c = int(coeffs[n])
        if n == 0:
            parts.append(str(c))
        elif c == 1:
            parts.append(f"C(H,{n})")
        else:
            parts.append(f"{c}*C(H,{n})")
    return " + ".join(parts)


def format_element(u: HyperElem, memo: dict | None = None) -> str:
    """Human-readable normal form, one line per (m, m') term.

    A `memo` dict, if given, maps each torus factor's bytes to its text and
    grows as factors are formatted, so that a caller formatting many
    elements of one context converts each distinct factor once.
    """
    if u.is_zero():
        return "0"
    if memo is None:
        memo = {}
    lines = []
    for (m, mp_), f in zip(u._keys, u._block):
        mid = memo.get(key := f.tobytes())
        if mid is None:
            mid = memo[key] = _format_weightfn(f, u.ctx)
        bits = []
        if m:
            bits.append(f"Y^({m})")
        bits.append(f"({mid})" if "+" in mid else mid)
        if mp_:
            bits.append(f"X^({mp_})")
        lines.append(" ".join(bits))
    return "\n".join(lines)
