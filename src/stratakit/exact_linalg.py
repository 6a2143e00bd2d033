"""The one exact linear-algebra core: fields, elimination and products.

Every elimination in the package runs here, over one of two fields: the
rationals (QQ: a scalar is an int while it is integral and a Fraction
only when it is not) or a prime field GF(p) (PrimeField, GFElement
scalars).  The primitives are written against the field object (zero,
one, of_int, inv, key):

* rref, the only elimination of the program, on sparse rows (a dict from
  column to nonzero value; a row may also come in as a list), and what is
  read off it: mat_rank, kernel_cols (a KernelBasis), span_kernel_basis
  (the KernelBasis kernel_cols would give, from vectors spanning the
  kernel), span_basis (the leftmost spanning vectors), solve_many
  (coordinates in spanning columns) and quotient_coords (a basis of a
  quotient, from relations given as lists or sparse dict rows, with each
  generator's class as a dict of its nonzero coordinates);
* reference_rref, the dense elimination rref replaced, kept as the path
  oracle's reference (mesh_hom.hom_dim_oracle and sweep_matches_oracle)
  so that the oracle does not share the elimination it checks;
* in_basis, the one induced-map helper: the coordinates of vectors in
  spanning columns, laid out as a matrix, or None when one leaves the
  span; sub_map (a matrix restricted to subspaces) runs on it, and so
  does every structure map that kan_strata and catmod build on a subspace;
  quotient_map, the map a matrix induces on quotients;
* products: mat_vec (skipping zero coordinates and zero entries) and
  mat_mul.

Empty shapes (no rows, no columns, no vectors) are valid inputs
everywhere.  Everything is exact arithmetic: no floating point anywhere.
Pivoting is deterministic (leftmost column, lowest row index), so all
derived bases are identical across runs.  A kernel basis (KernelBasis)
carries its free columns, so coordinates in it are read off, not solved
for.
"""
from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import InvalidInputError


class RationalField:
    """The field of rationals, as the default scalar domain.

    Its scalars are ints and Fractions: integral values may be either, and
    ints and Fractions mix exactly.  Division happens only in inv, so an
    int / int never makes a float.
    """

    zero = 0
    one = 1
    key = "QQ"

    @staticmethod
    def of_int(n: int) -> int:
        return n

    @staticmethod
    def inv(x):
        """1 / x; the inverse of an int stays an int when it is integral (+-1)."""
        if type(x) is int:
            return x if x == 1 or x == -1 else Fraction(1, x)
        return 1 / x

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

    def __bool__(self):
        return self.v != 0

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


# Primes are checked by trial division, which this bound keeps under 46,341 steps.
MAX_PRIME = 2 ** 31


class PrimeField:
    def __init__(self, p: int):
        if p >= MAX_PRIME:
            raise InvalidInputError(f"field characteristic {p} is not below {MAX_PRIME}")
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
            raise InvalidInputError(f"{p} is not prime")
        self.p = p
        self.zero = GFElement(0, p)
        self.one = GFElement(1, p)
        self.key = f"GF{p}"

    def of_int(self, n: int) -> GFElement:
        return GFElement(n, self.p)

    def inv(self, x: GFElement) -> GFElement:
        return self.one / x

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
# Field-generic elimination: sparse rows, and the dense reference.
# ---------------------------------------------------------------------------

def rref(rows: Sequence, ncols: int, field) -> Tuple[List[List], List[int]]:
    """Reduced row echelon form and pivot column indices, eliminating sparse rows.

    Each row comes in as a list or as a dict from column to value; only the
    first ncols columns are pivoted on, and any later columns (right-hand
    sides) are carried along.  The reduced form is unique, so the pivots and
    the pivot rows on the first ncols columns are those of the dense
    reference_rref.  Returns one list row per row given, as wide as the
    widest row and at least ncols: the pivot rows in pivot order, then the
    rest, which are zero in the first ncols columns.
    """
    pivot_rows, rest, width = _eliminate(rows, ncols, field)
    pivots = sorted(pivot_rows)
    out = []
    for row in [pivot_rows[pc] for pc in pivots] + rest:
        dense = [field.zero] * width
        for c, x in row.items():
            dense[c] = x
        out.append(dense)
    return out, pivots


def _eliminate(rows: Sequence, ncols: int, field):
    """rref's elimination, returning (pivot rows by pivot column, the other rows, width).

    Rows are held as dicts of their nonzero entries and reduced one at a time against the
    pivot rows so far, which are kept fully reduced; a row left nonzero in the first ncols
    columns becomes a new pivot row at its leftmost nonzero column, scaled to 1 there."""
    one = field.one
    width = ncols
    pivot_rows = {}   # pivot column -> its row, 1 at the pivot and 0 at every other pivot
    rest = []
    for r in rows:
        if isinstance(r, dict):
            row = {c: x for c, x in r.items() if x}
            if row:
                width = max(width, max(row) + 1)
        else:
            row = {c: x for c, x in enumerate(r) if x}
            width = max(width, len(r))
        for pc in [c for c in row if c in pivot_rows]:
            _axpy(row, -row[pc], pivot_rows[pc])
        lead = min(row, default=ncols)
        if lead >= ncols:
            rest.append(row)
            continue
        if row[lead] != one:
            inv = field.inv(row[lead])
            row = {c: x * inv for c, x in row.items()}
        for other in pivot_rows.values():
            f = other.get(lead)
            if f is not None:
                _axpy(other, -f, row)
        pivot_rows[lead] = row
    return pivot_rows, rest, width


def _axpy(row: dict, f, other: dict):
    """row += f * other on sparse rows, dropping the entries that cancel."""
    for c, x in other.items():
        y = row.get(c)
        if y is None:
            row[c] = f * x
        else:
            y += f * x
            if y:
                row[c] = y
            else:
                del row[c]


def reference_rref(rows: Sequence[Sequence], ncols: int, field) -> Tuple[List[List], List[int]]:
    """Dense reduced row echelon form and pivot column indices.

    The path oracle's elimination (mesh_hom.hom_dim_oracle and
    sweep_matches_oracle): it stays independent of rref, which the sweeps
    it checks run on.  Over QQ its pivot division is by a Fraction one, so
    int rows never divide into floats and the oracle's Fraction rows stay
    Fractions.
    """
    one = Fraction(1) if isinstance(field, RationalField) else field.one
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
        inv = one / m[r][c]
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


class KernelBasis(list):
    """A kernel basis from kernel_cols: its columns, plus the free columns
    (where the basis is the identity) and the pivot columns."""

    __slots__ = ("free", "pivots")


def kernel_cols(rows, ncols, field) -> KernelBasis:
    """Basis of the right kernel, one column vector per free column (ascending).

    With no rows every column is free, so the basis is the identity.  The
    result is a KernelBasis: coordinates in it are the entries at the free
    columns, so solve_many and sub_map read them off without eliminating.
    """
    basis = KernelBasis()
    if not rows:
        basis.extend(identity_rows(ncols, field))
        basis.free, basis.pivots = list(range(ncols)), []
        return basis
    red, pivots = rref(rows, ncols, field)
    pivot_set = set(pivots)
    basis.free = [c for c in range(ncols) if c not in pivot_set]
    basis.pivots = pivots
    for free in basis.free:
        v = [field.zero] * ncols
        v[free] = field.one
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][free]
        basis.append(v)
    return basis


def span_kernel_basis(vecs, ncols, field):
    """The basis kernel_cols gives for any system whose kernel is span(vecs),
    with the coefficients of each basis column over vecs.

    vecs are independent vectors of field^ncols, each a dict of its nonzero
    entries.  A column of that basis is 1 at its free column, 0 at every
    other free column and supported at the pivots before it, so read with
    the columns reversed the basis is the reduced row echelon form of the
    kernel, which depends only on the subspace.  One rref of the vecs,
    columns reversed and an identity block carried, therefore gives the
    KernelBasis (free columns ascending) and, in the carried block, each of
    its columns as a combination of the vecs.  Returns (basis, coefficient
    rows), or None when the vecs are dependent.
    """
    last = ncols - 1
    rows = []
    for t, v in enumerate(vecs):
        row = {last - c: x for c, x in v.items()}
        row[ncols + t] = field.one
        rows.append(row)
    red, pivots = rref(rows, ncols, field)
    if len(pivots) != len(vecs):
        return None
    basis = KernelBasis(row[last::-1] for row in reversed(red))
    basis.free = [last - pc for pc in reversed(pivots)]
    free = set(basis.free)
    basis.pivots = [c for c in range(ncols) if c not in free]
    return basis, [row[ncols:] for row in reversed(red)]


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

    Each relation is a list or, as rref takes rows, a dict from generator
    index to nonzero value.  Returns (kept, coords) where kept lists the
    generator indices whose classes form a basis of the quotient and
    coords[g] is the class of generator g over that basis, as a dict of its
    nonzero coordinates in ascending order.  Generator g is dropped exactly
    when some relation has its last nonzero entry at g, so only the
    relations are eliminated, pivoting from the last generator down; a
    dropped generator's class is read off its reduced relation, whose other
    entries all sit at kept generators.  One elimination serves every
    generator, so two runs pick identical bases, and the result depends only
    on span(rel_cols), since the reduced form is unique.
    """
    last = gen_dim - 1
    pivot_rows, _, _ = _eliminate([{last - c: x for c, x in (col.items() if isinstance(col, dict) else enumerate(col))
                                    if x} for col in rel_cols], gen_dim, field)
    kept = [g for g in range(gen_dim) if last - g not in pivot_rows]
    kept_pos = {k: idx for idx, k in enumerate(kept)}
    coords = []
    for g in range(gen_dim):
        idx = kept_pos.get(g)
        if idx is not None:
            coords.append({idx: field.one})
            continue
        pc = last - g
        coords.append({kept_pos[last - c]: -x for c, x in sorted(pivot_rows[pc].items(), reverse=True) if c != pc})
    return kept, coords


def solve_many(cols: Sequence[Sequence], vecs: Sequence[Sequence], field):
    """Each vec in the spanning columns, or None where it leaves their span.

    On a KernelBasis each answer is read off the free columns, where the
    basis is the identity, and checked by one sparse product against the
    pivot entries; the basis is independent, so that is the only answer.
    Any other columns are eliminated once, pivoting on the spanning columns
    only and carrying every right-hand side along, so each answer is the
    one a separate solve would give: free coordinates zero, pivot
    coordinates read off.
    """
    if not vecs:
        return []
    if isinstance(cols, KernelBasis):
        return [_kernel_coords(cols, v, field) for v in vecs]
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


def _kernel_coords(basis: KernelBasis, vec, field):
    """vec in the columns of a KernelBasis, or None where it leaves their span."""
    x = [vec[f] for f in basis.free]
    support = [(basis[j], c) for j, c in enumerate(x) if c != field.zero]
    for pc in basis.pivots:
        if sum((col[pc] * c for col, c in support), field.zero) != vec[pc]:
            return None
    return x


def in_basis(vecs, cols, field):
    """The matrix whose t-th column is vecs[t] in the spanning cols, or None
    when some vector leaves span(cols).

    The one place coordinates are solved for and laid out as a matrix: the
    induced maps (sub_map, the structure maps of kan_right and of kernels
    in catmod, the canonical map K_L -> K_R) all read their matrices here.
    One elimination of cols serves every vector, and none on a KernelBasis.
    """
    coords = solve_many(cols, vecs, field)
    if any(co is None for co in coords):
        return None
    return [[co[i] for co in coords] for i in range(len(cols))]


def sub_map(m, src_cols, tgt_cols, field):
    """The matrix of m restricted to span(src_cols) -> span(tgt_cols), in those bases.

    m maps the ambient space of src_cols to that of tgt_cols.  Returns None
    when the image of some source column leaves span(tgt_cols).
    """
    return in_basis([mat_vec(m, col, field) for col in src_cols], tgt_cols, field)


def quotient_map(m, src_kept, tgt, field):
    """The map m induces between quotients, in the bases quotient_coords picked.

    src_kept lists the source generators whose classes form the source
    quotient basis; tgt is the (kept, coords) quotient_coords gave for the
    target, coords[i] being the class of target generator i.
    """
    kept, coords = tgt
    out = [[field.zero] * len(src_kept) for _ in kept]
    for j, t in enumerate(src_kept):
        for row, co in zip(m, coords):
            c = row[t]
            if c:
                for r, x in co.items():
                    out[r][j] += c * x
    return out


def mat_vec(m, vec, field):
    """The product m vec, summing over the nonzero coordinates of vec and the
    nonzero entries of m only (a scalar is zero exactly when it is falsy)."""
    support = [(j, x) for j, x in enumerate(vec) if x]
    out = []
    for row in m:
        acc = field.zero
        for j, x in support:
            c = row[j]
            if c:
                acc += c * x
        out.append(acc)
    return out


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


def format_fraction(x) -> str:
    """Lossless "num/den" encoding; integers drop the denominator."""
    if type(x) is int:
        return str(x)
    x = Fraction(x) if isinstance(x, (int, str)) else x
    if not isinstance(x, Fraction):
        raise InvalidInputError(f"not an exact rational: {x!r}")
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_fraction(s):
    """A rational from its JSON form: an int when it is integral, else a Fraction."""
    if type(s) is int:
        return s
    try:
        x = Fraction(s)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InvalidInputError(f"bad rational {s!r}") from exc
    return x.numerator if x.denominator == 1 else x
