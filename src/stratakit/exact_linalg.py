"""The one exact linear-algebra core: fields, elimination and products.

Every elimination in the package runs here, over one of two fields: the
rationals (QQ, Fraction scalars) or a prime field GF(p) (PrimeField,
GFElement scalars).  The primitives are written against the field object
(zero, one, of_int, key):

* rref, the only elimination, and what is read off it: mat_rank,
  kernel_cols, left_kernel_rows, span_basis (the leftmost spanning
  vectors), solve_many (coordinates in spanning columns) and
  quotient_coords (a basis of a quotient);
* the maps a matrix induces on sub- and quotient spaces, sub_map and
  quotient_map;
* products: mat_vec (skipping zero coordinates) and mat_mul.

Empty shapes (no rows, no columns, no vectors) are valid inputs
everywhere.  Everything is exact arithmetic: no floating point anywhere.
Pivoting is deterministic (leftmost column, lowest row index), so all
derived bases are identical across runs.  The public RatMatrix type is
rational-only and calls the same primitives.
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

    @staticmethod
    def encode(x) -> str:
        """The JSON entry of x: lossless "num/den" (see format_fraction)."""
        return format_fraction(x)


QQ = RationalField()


# ---------------------------------------------------------------------------
# A small prime field for the fiber oracle.  Exhaustive subspace enumeration
# is only finite over finite fields, so the fiber answer is labeled with its
# field and not asserted to equal the complex-geometric one.
# ---------------------------------------------------------------------------

class GFElement:
    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def __add__(self, other):
        return GFElement(self.v + other.v, self.p)

    def __sub__(self, other):
        return GFElement(self.v - other.v, self.p)

    def __neg__(self):
        return GFElement(-self.v, self.p)

    def __mul__(self, other):
        return GFElement(self.v * other.v, self.p)

    def __truediv__(self, other):
        if other.v == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return GFElement(self.v * pow(other.v, self.p - 2, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return f"{self.v}(mod {self.p})"


class PrimeField:
    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise InvalidInputError(f"{p} is not prime")
        self.p = p
        self.zero = GFElement(0, p)
        self.one = GFElement(1, p)
        self.key = f"GF{p}"

    def of_int(self, n: int) -> GFElement:
        return GFElement(n, self.p)

    def encode(self, x: GFElement) -> str:
        """The JSON entry of x: its residue in 0..p-1, as a decimal string."""
        return str(x.v)

    def of_fraction(self, x: Fraction) -> GFElement:
        x = Fraction(x)
        if x.denominator % self.p == 0:
            raise InvalidInputError(f"denominator of {x} not invertible mod {self.p}")
        return GFElement(x.numerator * pow(x.denominator % self.p, self.p - 2, self.p), self.p)

    def elements(self):
        return [GFElement(i, self.p) for i in range(self.p)]


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
    """Rank of the matrix; 0 when it has no rows or no columns."""
    return len(rref(rows, ncols, field)[1]) if rows and ncols else 0


def kernel_cols(rows, ncols, field) -> List[List]:
    """Basis of the right kernel, one column vector per free column (ascending).

    With no rows every column is free, so the basis is the identity.
    """
    if not rows:
        return identity_rows(ncols, field)
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


def left_kernel_rows(rows, nrows: int, field):
    """Rows spanning the left kernel {y : y A = 0} of the nrows-row matrix A.

    A matrix with no columns (or no rows given) has the identity as its left kernel.
    """
    return kernel_cols(transpose_rows(rows), nrows, field)


def span_basis(vecs: Sequence[Sequence], dim: int, field) -> List:
    """The leftmost vectors of field^dim that span the same space as vecs.

    A vector is kept exactly when it is not in the span of the ones before
    it (the pivot columns of the matrix with the vectors as columns).
    """
    if not vecs or not dim:
        return []
    _, pivots = rref([[v[i] for v in vecs] for i in range(dim)], len(vecs), field)
    return [vecs[j] for j in pivots]


def quotient_coords(gen_dim: int, rel_cols: Sequence[Sequence], field):
    """Coordinates in V / span(rel_cols) with V = field^gen_dim.

    Returns (kept, coords) where kept lists the generator indices whose
    classes form a basis of the quotient and coords[g] expresses the class
    of generator g over that basis.  Generator g is dropped exactly when
    some relation has its last nonzero entry at g, so only the relations
    are eliminated, pivoting from the last generator down; a dropped
    generator's class is read off its reduced relation.  One elimination
    serves every generator, so two runs pick identical bases, and the
    result depends only on span(rel_cols), since the reduced form is unique.
    """
    last = gen_dim - 1
    red, pivots = rref([[col[last - c] for c in range(gen_dim)] for col in rel_cols], gen_dim, field)
    dropped = {last - pc: red[i] for i, pc in enumerate(pivots)}
    kept = [g for g in range(gen_dim) if g not in dropped]
    kept_pos = {k: idx for idx, k in enumerate(kept)}
    coords = []
    for g in range(gen_dim):
        if g in kept_pos:
            v = [field.zero] * len(kept)
            v[kept_pos[g]] = field.one
        else:
            row = dropped[g]
            v = [-row[last - k] for k in kept]
        coords.append(v)
    return kept, coords


def solve_many(cols: Sequence[Sequence], vecs: Sequence[Sequence], field):
    """Each vec in the spanning columns, or None where it leaves their span.

    One elimination pivots on the spanning columns only and carries every
    right-hand side along, so each answer is the one a separate solve
    would give: free coordinates zero, pivot coordinates read off.
    """
    if not vecs:
        return []
    k = len(cols)
    n = len(vecs[0])
    rows = [[c[i] for c in cols] + [v[i] for v in vecs] for i in range(n)]
    red, pivots = rref(rows, k, field)
    rank = len(pivots)
    out = []
    for j in range(k, k + len(vecs)):
        if any(red[i][j] != field.zero for i in range(rank, n)):
            out.append(None)
            continue
        x = [field.zero] * k
        for i, pc in enumerate(pivots):
            x[pc] = red[i][j]
        out.append(x)
    return out


def sub_map(m, src_cols, tgt_cols, field):
    """The matrix of m restricted to span(src_cols) -> span(tgt_cols), in those bases.

    m maps the ambient space of src_cols to that of tgt_cols.  Returns None
    when the image of some source column leaves span(tgt_cols).  One
    elimination of tgt_cols serves every source column.
    """
    out_cols = solve_many(tgt_cols, [mat_vec(m, col, field) for col in src_cols], field)
    if any(co is None for co in out_cols):
        return None
    return [[c[i] for c in out_cols] for i in range(len(tgt_cols))]


def quotient_map(m, src_kept, tgt_coords, field):
    """The map m induces between quotients, in the bases quotient_coords picked.

    src_kept lists the source generators whose classes form the source
    quotient basis; tgt_coords[i] is the class of target generator i over
    the target quotient basis.
    """
    dim = len(tgt_coords[0]) if tgt_coords else 0
    out_cols = []
    for t in src_kept:
        vec = [field.zero] * dim
        for row, co in zip(m, tgt_coords):
            c = row[t]
            if c != field.zero:
                for r in range(dim):
                    vec[r] += c * co[r]
        out_cols.append(vec)
    return [[c[i] for c in out_cols] for i in range(dim)]


def mat_vec(m, vec, field):
    """The product m vec, summing over the nonzero coordinates of vec only."""
    support = [(j, x) for j, x in enumerate(vec) if x != field.zero]
    return [sum((row[j] * x for j, x in support), field.zero) for row in m]


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


def transpose_rows(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


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
        return mat_rank(self.row_list(), self.cols, QQ)

    def kernel_basis(self) -> "RatMatrix":
        """Matrix whose columns form a basis of ker(self)."""
        return RatMatrix.from_columns(kernel_cols(self.row_list(), self.cols, QQ), self.cols)

    def image_basis(self) -> "RatMatrix":
        """Matrix whose columns are the pivot columns of self (a basis of the image)."""
        return RatMatrix.from_columns(span_basis(self.columns(), self.rows, QQ), self.rows)

    def solve(self, b):
        """A solution x of self x = b, or the string "inconsistent"."""
        x, _ = self.solve_certified(b)
        return x if x is not None else "inconsistent"

    def solve_certified(self, b):
        """Returns (x, None) on success or (None, y) with y self = 0 and y b != 0.

        The certificate y is the first row of the left-kernel basis that
        does not annihilate b; one exists exactly when b leaves the image.
        """
        bv = [_fr(x) for x in b]
        if len(bv) != self.rows:
            raise InvalidInputError("dimension mismatch in solve")
        x = solve_many(self.columns(), [bv], QQ)[0]
        if x is not None:
            return x, None
        return None, next(y for y in left_kernel_rows(self.row_list(), self.rows, QQ)
                          if sum(yi * bi for yi, bi in zip(y, bv)) != 0)

    def coker_projection(self) -> "RatMatrix":
        """A full-row-rank matrix P with P self = 0 presenting coker(self).

        Rows form a basis of the left kernel, so P has rank = rows(self) -
        rank(self) and ker(P) = im(self).
        """
        return RatMatrix(left_kernel_rows(self.row_list(), self.rows, QQ), cols=self.rows)

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
