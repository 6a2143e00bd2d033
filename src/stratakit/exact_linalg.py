"""Exact rational matrices and the kernel/image/cokernel/solve primitives.

Everything is arbitrary-precision rational arithmetic: no floating point
anywhere.  Pivoting is deterministic (leftmost column, lowest row index),
so all derived bases are identical across runs.

The worker routines are written against an abstract field object (zero,
one, of_int) so that other modules can run the same eliminations over
their own scalars.  The public RatMatrix type is rational-only.
"""
from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import InvalidInputError


class RationalField:
    """The field of rationals, as the default scalar domain."""

    zero = Fraction(0)
    one = Fraction(1)
    key = "QQ"

    @staticmethod
    def of_int(n: int) -> Fraction:
        return Fraction(n)


QQ = RationalField()


# ---------------------------------------------------------------------------
# Field-generic elimination on lists of rows.
# ---------------------------------------------------------------------------

def rref(rows: Sequence[Sequence], ncols: int, field) -> Tuple[List[List], List[int]]:
    """Reduced row echelon form and pivot column indices."""
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c] != field.zero:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = field.one / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != field.zero:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def mat_rank(rows, ncols, field) -> int:
    return len(rref(rows, ncols, field)[1])


def kernel_cols(rows, ncols, field) -> List[List]:
    """Basis of the right kernel, one column vector per free column (ascending)."""
    red, pivots = rref(rows, ncols, field)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [field.zero] * ncols
        v[free] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][free]
        basis.append(v)
    return basis


def solve_cols(rows, b, field):
    """Solve A x = b.  Returns (x, None) or (None, y) with y A = 0, y b != 0."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    if len(b) != nrows:
        raise InvalidInputError("dimension mismatch in solve")
    # Augment with b and with an identity block recording the row operations.
    aug = [list(rows[i]) + [b[i]] + [field.one if j == i else field.zero for j in range(nrows)] for i in range(nrows)]
    red, pivots = rref(aug, ncols + 1 + nrows, field)
    for i, pc in enumerate(pivots):
        if pc == ncols:
            y = red[i][ncols + 1:]
            return None, y
    x = [field.zero] * ncols
    for i, pc in enumerate(pivots):
        if pc < ncols:
            x[pc] = red[i][ncols]
    return x, None


def quotient_coords(gen_dim: int, rel_cols: Sequence[Sequence], field):
    """Coordinates in V / span(rel_cols) with V = field^gen_dim.

    Returns (kept, coords) where kept lists the generator indices whose
    classes form a basis of the quotient and coords[g] expresses the class
    of generator g over that basis.  A single elimination serves every
    generator, so two runs pick identical bases.
    """
    nrel = len(rel_cols)
    rows = [[(rel_cols[j][i]) for j in range(nrel)] + [field.one if g == i else field.zero for g in range(gen_dim)]
            for i in range(gen_dim)]
    red, pivots = rref(rows, nrel + gen_dim, field)
    kept = [pc - nrel for pc in pivots if pc >= nrel]
    kept_pos = {k: idx for idx, k in enumerate(kept)}
    coords = []
    for g in range(gen_dim):
        col = nrel + g
        if g in kept_pos:
            v = [field.zero] * len(kept)
            v[kept_pos[g]] = field.one
        else:
            v = [field.zero] * len(kept)
            for i, pc in enumerate(pivots):
                if pc >= nrel:
                    v[kept_pos[pc - nrel]] = red[i][col]
        coords.append(v)
    return kept, coords


def coords_in_col_span(cols: Sequence[Sequence], vec, field):
    """Express vec in the given spanning columns, or None if outside the span."""
    if not cols:
        return [] if all(x == field.zero for x in vec) else None
    rows = [[c[i] for c in cols] for i in range(len(vec))]
    x, _ = solve_cols(rows, list(vec), field)
    return x


def mat_mul(a, b, field):
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    out = [[field.zero] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if x == field.zero:
                continue
            bt = b[t]
            for j in range(m):
                if bt[j] != field.zero:
                    oi[j] += x * bt[j]
    return out


def identity_rows(n, field):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def zero_rows(n, m, field):
    return [[field.zero] * m for _ in range(n)]


def transpose_rows(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def preimage_cols(map_rows, nsrc: int, sub_cols, field):
    """Columns spanning the preimage of span(sub_cols) under the matrix map_rows."""
    ntgt = len(map_rows)
    if ntgt == 0 or nsrc == 0:
        return identity_rows(nsrc, field)
    if sub_cols:
        sub_rows = [[col[i] for col in sub_cols] for i in range(ntgt)]
        proj = left_kernel_rows(sub_rows, ntgt, field)
    else:
        proj = identity_rows(ntgt, field)
    if not proj:
        return identity_rows(nsrc, field)
    comp = mat_mul(proj, map_rows, field)
    return kernel_cols(comp, nsrc, field)


def left_kernel_rows(rows, nrows: int, field):
    """Rows spanning the left kernel {y : y A = 0}."""
    ncols = len(rows[0]) if rows else 0
    cols_of_t = kernel_cols(transpose_rows(rows) if rows else zero_rows(ncols, nrows, field), nrows, field)
    return [list(v) for v in cols_of_t]


# ---------------------------------------------------------------------------
# The public rational matrix type.
# ---------------------------------------------------------------------------

def _fr(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise InvalidInputError(f"not an exact rational: {x!r}")


class RatMatrix:
    """An immutable exact rational matrix."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence], rows: Optional[int] = None, cols: Optional[int] = None):
        ent = tuple(tuple(_fr(x) for x in row) for row in entries)
        if ent:
            width = len(ent[0])
            if any(len(r) != width for r in ent):
                raise InvalidInputError("ragged matrix")
        else:
            width = cols if cols is not None else 0
        object.__setattr__(self, "entries", ent)
        object.__setattr__(self, "rows", len(ent) if rows is None else rows)
        object.__setattr__(self, "cols", width)
        if rows is not None and rows != len(ent) and ent:
            raise InvalidInputError("row count mismatch")

    def __setattr__(self, *a):
        raise AttributeError("RatMatrix is immutable")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RatMatrix":
        return cls([[0] * cols for _ in range(rows)], rows=rows, cols=cols)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(identity_rows(n, QQ))

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], nrows: int) -> "RatMatrix":
        if not cols:
            return cls.zero(nrows, 0)
        return cls([[col[i] for col in cols] for i in range(nrows)])

    def row_list(self) -> List[List[Fraction]]:
        return [list(r) for r in self.entries]

    def column(self, j: int) -> List[Fraction]:
        return [r[j] for r in self.entries]

    def columns(self) -> List[List[Fraction]]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "RatMatrix":
        return RatMatrix(transpose_rows(self.row_list()), rows=self.cols, cols=self.rows)

    def mul(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise InvalidInputError(f"cannot multiply {self.shape()} by {other.shape()}")
        if self.rows == 0 or other.cols == 0:
            return RatMatrix.zero(self.rows, other.cols)
        return RatMatrix(mat_mul(self.row_list(), other.row_list(), QQ), rows=self.rows, cols=other.cols)

    __matmul__ = mul

    def add(self, other: "RatMatrix") -> "RatMatrix":
        if self.shape() != other.shape():
            raise InvalidInputError("shape mismatch in add")
        return RatMatrix([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
                         rows=self.rows, cols=self.cols)

    def sub(self, other: "RatMatrix") -> "RatMatrix":
        if self.shape() != other.shape():
            raise InvalidInputError("shape mismatch in sub")
        return RatMatrix([[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
                         rows=self.rows, cols=self.cols)

    def scale(self, c) -> "RatMatrix":
        c = _fr(c)
        return RatMatrix([[c * x for x in r] for r in self.entries], rows=self.rows, cols=self.cols)

    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.entries for x in r)

    def rank(self) -> int:
        if self.rows == 0 or self.cols == 0:
            return 0
        return mat_rank(self.row_list(), self.cols, QQ)

    def kernel_basis(self) -> "RatMatrix":
        """Matrix whose columns form a basis of ker(self)."""
        if self.cols == 0:
            return RatMatrix.zero(0, 0)
        if self.rows == 0:
            return RatMatrix.identity(self.cols)
        cols = kernel_cols(self.row_list(), self.cols, QQ)
        return RatMatrix.from_columns(cols, self.cols)

    def image_basis(self) -> "RatMatrix":
        """Matrix whose columns are the pivot columns of self (a basis of the image)."""
        if self.rows == 0 or self.cols == 0:
            return RatMatrix.zero(self.rows, 0)
        _, pivots = rref(self.row_list(), self.cols, QQ)
        return RatMatrix.from_columns([self.column(j) for j in pivots], self.rows)

    def solve(self, b):
        """A solution x of self x = b, or the string "inconsistent"."""
        x, _ = self.solve_certified(b)
        return x if x is not None else "inconsistent"

    def solve_certified(self, b):
        """Returns (x, None) on success or (None, y) with y self = 0 and y b != 0."""
        bv = [_fr(x) for x in b]
        if len(bv) != self.rows:
            raise InvalidInputError("dimension mismatch in solve")
        if self.rows == 0:
            return [Fraction(0)] * self.cols, None
        return solve_cols(self.row_list(), bv, QQ)

    def coker_projection(self) -> "RatMatrix":
        """A full-row-rank matrix P with P self = 0 presenting coker(self).

        Rows form a basis of the left kernel, so P has rank = rows(self) -
        rank(self) and ker(P) = im(self).
        """
        if self.rows == 0:
            return RatMatrix.zero(0, 0)
        yrows = left_kernel_rows(self.row_list(), self.rows, QQ)
        if not yrows:
            return RatMatrix.zero(0, self.rows)
        return RatMatrix(yrows, cols=self.rows)

    def __eq__(self, other):
        return isinstance(other, RatMatrix) and self.shape() == other.shape() and self.entries == other.entries

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"RatMatrix({self.rows}x{self.cols})"

    def to_json(self):
        return [[format_fraction(x) for x in row] for row in self.entries]

    @classmethod
    def from_json(cls, data, rows: Optional[int] = None, cols: Optional[int] = None) -> "RatMatrix":
        return cls([[parse_fraction(x) for x in row] for row in data], rows=rows, cols=cols)


def format_fraction(x: Fraction) -> str:
    """Lossless "num/den" encoding; integers drop the denominator."""
    x = _fr(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_fraction(s) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InvalidInputError(f"bad rational {s!r}") from exc
