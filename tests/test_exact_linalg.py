import ast
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import stratakit
from stratakit import exact_linalg
from stratakit.errors import InvalidInputError
from stratakit.exact_linalg import (
    QQ,
    GFElement,
    KernelBasis,
    PrimeField,
    format_fraction,
    identity_rows,
    in_basis,
    kernel_cols,
    mat_rank,
    mat_vec,
    parse_fraction,
    quotient_coords,
    quotient_map,
    reference_rref,
    rref,
    solve_many,
    span_basis,
    span_kernel_basis,
    sub_map,
    transpose_rows,
)


def left_kernel_rows(rows, nrows: int, field):
    """Rows spanning the left kernel {y : y A = 0} of the nrows-row matrix A: the kernel of its transpose.

    A matrix with no columns (or no rows given) has the identity as its left kernel.
    """
    return kernel_cols(transpose_rows(rows), nrows, field)


small_entries = st.integers(min_value=-4, max_value=4)


def matrix_strategy(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(st.lists(small_entries, min_size=c, max_size=c), min_size=r, max_size=r)))


def _q(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _columns(rows):
    return [list(c) for c in zip(*rows)]


def test_kernel_of_zero_matrix():
    assert len(kernel_cols(_q([[0, 0, 0], [0, 0, 0]]), 3, QQ)) == 3


def test_kernel_of_identity():
    assert kernel_cols(identity_rows(3, QQ), 3, QQ) == []


def test_rank_one_kernel():
    a = _q([[1, 2], [2, 4]])
    k = kernel_cols(a, 2, QQ)
    assert len(k) == 1
    v = k[0]
    # spanned by (2, -1) up to scale
    assert v[0] * Fraction(-1) == v[1] * Fraction(2)
    assert mat_vec(a, v, QQ) == [0, 0]


def test_solve_identity():
    assert solve_many(identity_rows(3, QQ), _q([[1, 2, 3]]), QQ) == _q([[1, 2, 3]])


def _certificate(rows, b):
    """The first left-kernel row y of rows with y b != 0 (y rows = 0 by construction)."""
    return next(y for y in left_kernel_rows(rows, len(rows), QQ) if sum(yi * bi for yi, bi in zip(y, b)) != 0)


def test_solve_inconsistent_certificate():
    a = _q([[0]])
    assert solve_many(_columns(a), _q([[1]]), QQ) == [None]
    y = _certificate(a, [Fraction(1)])
    assert sum(yi * 0 for yi in y) == 0
    assert sum(yi * b for yi, b in zip(y, [Fraction(1)])) != 0


def test_coker_projection_full_rank_square():
    assert left_kernel_rows(_q([[1, 1], [0, 1]]), 2, QQ) == []


@settings(max_examples=60, deadline=None)
@given(matrix_strategy())
def test_rank_nullity_exact(rows):
    a, ncols = _q(rows), len(rows[0])
    k = kernel_cols(a, ncols, QQ)
    assert mat_rank(a, ncols, QQ) + len(k) == ncols
    assert all(mat_vec(a, v, QQ) == [0] * len(a) for v in k)


@settings(max_examples=60, deadline=None)
@given(matrix_strategy(), st.lists(small_entries, min_size=1, max_size=4))
def test_solve_or_certify(rows, b):
    a = _q(rows)
    b = [Fraction(v) for v in (b * 4)[: len(a)]]
    x = solve_many(_columns(a), [b], QQ)[0]
    if x is not None:
        assert mat_vec(a, x, QQ) == b
    else:
        y = _certificate(a, b)
        assert all(v == 0 for v in mat_vec(_columns(a), y, QQ))


@settings(max_examples=40, deadline=None)
@given(matrix_strategy())
def test_coker_projection_contract(rows):
    a, ncols = _q(rows), len(rows[0])
    p = left_kernel_rows(a, len(a), QQ)
    assert len(p) == len(a) - mat_rank(a, ncols, QQ)
    assert all(v == 0 for y in p for v in mat_vec(_columns(a), y, QQ))


def test_quotient_coords_reduction():
    # quotient of k^3 by span((1,1,0)): generators 0 and 1 agree up to sign
    kept, coords = quotient_coords(3, [[QQ.one, QQ.one, QQ.zero]], QQ)
    assert len(kept) == 2
    assert coords[0] == {k: -c for k, c in coords[1].items()} or coords[1] == {k: -c for k, c in coords[0].items()}


def test_sub_map_known_restriction():
    m = _q([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    # span(e0, e1) is invariant: e0 -> e0, e1 -> e0 + e1
    assert sub_map(m, _q([[1, 0, 0], [0, 1, 0]]), _q([[1, 0, 0], [0, 1, 0]]), QQ) == _q([[1, 1], [0, 1]])
    # (1,1,0) -> (2,1,0) = 2 e0 + 1 e1, and in the basis (1,1,0), (1,0,0): 1 and 1
    assert sub_map(m, _q([[1, 1, 0]]), _q([[1, 0, 0], [0, 1, 0]]), QQ) == _q([[2], [1]])
    assert sub_map(m, _q([[1, 1, 0]]), _q([[1, 1, 0], [1, 0, 0]]), QQ) == _q([[1], [1]])


def test_sub_map_none_when_an_image_leaves_the_span():
    swap = _q([[0, 1], [1, 0]])
    assert sub_map(swap, _q([[1, 0]]), _q([[1, 0]]), QQ) is None
    assert sub_map(swap, _q([[1, 1]]), _q([[1, 1]]), QQ) == _q([[1]])


def test_sub_map_empty_bases():
    m = _q([[1, 0], [0, 1]])
    assert sub_map(m, [], _q([[1, 0], [0, 1]]), QQ) == [[], []]
    assert sub_map(m, _q([[1, 0]]), [], QQ) is None
    assert sub_map(_q([[0, 0], [0, 0]]), _q([[1, 0]]), [], QQ) == []
    assert sub_map(m, [], [], QQ) == []


def test_quotient_map_known_quotient():
    # target k^3 / span((1,1,0)): the classes of e0 and e2 form the basis, e1 = -e0
    tgt = kept, coords = quotient_coords(3, _q([[1, 1, 0]]), QQ)
    assert kept == [0, 2]
    assert coords == [{0: 1}, {0: -1}, {1: 1}]  # the nonzero coordinates only
    m = _q([[1, 0, 0], [0, 1, 0], [0, 0, 1]])  # k^3 -> k^3, columns are images
    assert quotient_map(m, [0, 1, 2], tgt, QQ) == _q([[1, -1, 0], [0, 0, 1]])
    # a quotient source keeps only some generators: the map is read on those columns
    assert quotient_map(_q([[2, 5], [3, 7], [0, 1]]), [1], tgt, QQ) == _q([[-2], [1]])


def test_quotient_map_empty_bases():
    whole = quotient_coords(2, [], QQ)
    m = _q([[1, 2], [3, 4]])
    assert quotient_map(m, [], whole, QQ) == [[], []]
    assert quotient_map([], [0, 1], ([], []), QQ) == []
    zero = quotient_coords(2, _q([[1, 0], [0, 1]]), QQ)
    assert zero == ([], [{}, {}])
    assert quotient_map(m, [0], zero, QQ) == []


def test_prime_field_rejects_characteristics_from_2_to_the_31():
    """Trial division stays under 46,341 steps: 2**31 - 1 is the largest prime accepted."""
    assert PrimeField(2 ** 31 - 1).p == 2 ** 31 - 1
    for p in (2 ** 31, 100000000000031, 2 ** 89 - 1, 10 ** 400):
        with pytest.raises(InvalidInputError, match="not below 2147483648"):
            PrimeField(p)


def test_fraction_json_round_trip():
    for s in ["3", "-7/2", "0", "12/35"]:
        assert format_fraction(parse_fraction(s)) == s
    for x in [Fraction(1, 2), Fraction(3), Fraction(0), Fraction(-5, 7), 3, -7, 0]:
        assert parse_fraction(format_fraction(x)) == x
    # an integral value parses to an int, whatever its form; the rest to a Fraction
    assert [(parse_fraction(x), type(parse_fraction(x))) for x in (3, "3", "6/2", Fraction(6, 2), "1/2")] == [
        (3, int), (3, int), (3, int), (3, int), (Fraction(1, 2), Fraction)]
    for bad in ("x/y", "1/0", None, [1]):
        with pytest.raises(InvalidInputError):
            parse_fraction(bad)


def test_image_basis_deterministic_pivots():
    a = _q([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    img = span_basis(_columns(a), 3, QQ)
    assert len(img) == mat_rank(a, 3, QQ) == 2
    # pivot columns are the leftmost independent ones
    assert img[0] == _columns(a)[0]


# ---------------------------------------------------------------------------
# Slow twins: the identity-augmented eliminations these routines replaced,
# kept here as the reference the one-elimination versions must reproduce.
# ---------------------------------------------------------------------------

def _twin_solve_cols(rows, b, field):
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    aug = [list(rows[i]) + [b[i]] + [field.one if j == i else field.zero for j in range(nrows)]
           for i in range(nrows)]
    red, pivots = rref(aug, ncols + 1 + nrows, field)
    for i, pc in enumerate(pivots):
        if pc == ncols:
            return None
    x = [field.zero] * ncols
    for i, pc in enumerate(pivots):
        if pc < ncols:
            x[pc] = red[i][ncols]
    return x


def _twin_quotient_coords(gen_dim, rel_cols, field):
    nrel = len(rel_cols)
    rows = [[rel_cols[j][i] for j in range(nrel)] + [field.one if g == i else field.zero for g in range(gen_dim)]
            for i in range(gen_dim)]
    red, pivots = rref(rows, nrel + gen_dim, field)
    kept = [pc - nrel for pc in pivots if pc >= nrel]
    kept_pos = {k: idx for idx, k in enumerate(kept)}
    coords = []
    for g in range(gen_dim):
        v = [field.zero] * len(kept)
        if g in kept_pos:
            v[kept_pos[g]] = field.one
        else:
            for i, pc in enumerate(pivots):
                if pc >= nrel:
                    v[kept_pos[pc - nrel]] = red[i][nrel + g]
        coords.append({i: x for i, x in enumerate(v) if x})
    return kept, coords


def _twin_coords_in_col_span(cols, vec, field):
    if not cols:
        return [] if all(x == field.zero for x in vec) else None
    return _twin_solve_cols([[c[i] for c in cols] for i in range(len(vec))], list(vec), field)


def _twin_sub_map(m, src_cols, tgt_cols, field):
    out_cols = []
    for col in src_cols:
        img = [sum((row[j] * col[j] for j in range(len(col))), field.zero) for row in m]
        co = _twin_coords_in_col_span(tgt_cols, img, field)
        if co is None:
            return None
        out_cols.append(co)
    return [[c[i] for c in out_cols] for i in range(len(tgt_cols))]


FIELDS = [QQ, PrimeField(3)]


@st.composite
def _vectors(draw, field, dim, count_max, spanning=()):
    """Vectors of field^dim, some drawn inside span(spanning) so both outcomes occur."""
    out = []
    for _ in range(draw(st.integers(0, count_max))):
        if spanning and draw(st.booleans()):
            cs = [field.of_int(draw(small_entries)) for _ in spanning]
            out.append([sum((c * col[i] for c, col in zip(cs, spanning)), field.zero) for i in range(dim)])
        else:
            out.append([field.of_int(draw(small_entries)) for _ in range(dim)])
    return out


@st.composite
def _span_case(draw, min_dim):
    field = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(min_dim, 5))
    cols = draw(_vectors(field, dim, 4))
    return field, dim, cols


@settings(max_examples=150, deadline=None)
@given(_span_case(min_dim=0))
def test_quotient_coords_matches_identity_augmented_twin(case):
    field, dim, rel_cols = case
    assert quotient_coords(dim, rel_cols, field) == _twin_quotient_coords(dim, rel_cols, field)


@settings(max_examples=150, deadline=None)
@given(_span_case(min_dim=0))
def test_quotient_coords_takes_relations_as_sparse_dict_rows(case):
    field, dim, rel_cols = case
    sparse = [{g: x for g, x in enumerate(col) if x} for col in rel_cols]
    assert quotient_coords(dim, sparse, field) == quotient_coords(dim, rel_cols, field)


@settings(max_examples=150, deadline=None)
@given(st.data(), _span_case(min_dim=1))
def test_solve_many_matches_twin(data, case):
    field, dim, cols = case
    for vec in data.draw(_vectors(field, dim, 4, cols)):
        assert solve_many(cols, [vec], field)[0] == _twin_coords_in_col_span(cols, vec, field)


def _twin_span_basis(vecs, dim, field):
    """The rref pivot pick the callers made before span_basis existed."""
    if not vecs:
        return []
    _, pivots = rref([[vecs[j][i] for j in range(len(vecs))] for i in range(dim)], len(vecs), field)
    return [vecs[j] for j in pivots]


@settings(max_examples=150, deadline=None)
@given(st.data(), _span_case(min_dim=0))
def test_span_basis_matches_rref_pivot_pick(data, case):
    field, dim, cols = case
    vecs = cols + data.draw(_vectors(field, dim, 3, cols))  # some vectors repeat the span
    assert span_basis(vecs, dim, field) == _twin_span_basis(vecs, dim, field)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(FIELDS), st.integers(1, 4), st.integers(1, 4))
def test_sub_map_matches_twin(data, field, src_dim, tgt_dim):
    m = data.draw(_vectors(field, src_dim, tgt_dim))
    m += [[field.zero] * src_dim for _ in range(tgt_dim - len(m))]
    src_cols = data.draw(_vectors(field, src_dim, 3))
    images = [[sum((row[j] * col[j] for j in range(src_dim)), field.zero) for row in m] for col in src_cols]
    # target bases that hold the images, or only some of them, or none
    tgt_cols = images[:data.draw(st.integers(0, len(images)))] + data.draw(_vectors(field, tgt_dim, 2))
    assert sub_map(m, src_cols, tgt_cols, field) == _twin_sub_map(m, src_cols, tgt_cols, field)


def test_twins_cover_the_degenerate_shapes():
    for field in FIELDS:
        one, zero = field.one, field.zero
        assert quotient_coords(0, [], field) == _twin_quotient_coords(0, [], field) == ([], [])
        assert quotient_coords(2, [], field) == _twin_quotient_coords(2, [], field)
        assert solve_many([], [[zero, zero]], field)[0] == [] == _twin_coords_in_col_span([], [zero, zero], field)
        assert solve_many([], [[one]], field)[0] is None is _twin_coords_in_col_span([], [one], field)
        m = [[one, zero], [zero, one]]
        for src, tgt in [([], [[one, zero]]), ([[one, zero]], []), ([], [])]:
            assert sub_map(m, src, tgt, field) == _twin_sub_map(m, src, tgt, field)


def test_degenerate_shapes():
    for field in FIELDS:
        one, zero = field.one, field.zero
        ident2 = [[one, zero], [zero, one]]
        # no rows; rows of length zero; no vectors at all
        assert mat_rank([], 3, field) == 0
        assert mat_rank([[], []], 0, field) == 0
        assert kernel_cols([], 2, field) == ident2
        assert kernel_cols([[], []], 0, field) == []
        assert kernel_cols([], 0, field) == []
        assert left_kernel_rows([], 2, field) == ident2
        assert left_kernel_rows([[], []], 2, field) == ident2
        assert left_kernel_rows([], 0, field) == []
        assert span_basis([], 3, field) == []
        assert span_basis([[], []], 0, field) == []
        assert solve_many([[one, zero]], [], field) == []
        assert solve_many([[], []], [[]], field) == [[zero, zero]]
        assert solve_many([], [[], []], field) == [[], []]


def test_solve_certified_on_empty_shapes():
    # a 0 x 2 matrix: every x solves it
    assert solve_many([[], []], [[]], QQ) == [[0, 0]]
    # a 2 x 0 matrix: only 0 lies in its image, and a left-kernel row certifies the rest
    assert solve_many([], _q([[0, 1]]), QQ) == [None]
    assert _certificate([[], []], _q([[0, 1]])[0])[1] != 0
    assert solve_many([], _q([[0, 0]]), QQ) == [[]]


# ---------------------------------------------------------------------------
# One elimination core: only exact_linalg eliminates or defines a field.
# ---------------------------------------------------------------------------

FIELD_CLASSES = {"RationalField", "PrimeField", "GFElement"}


def _called_name(node):
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_exact_linalg_is_the_only_elimination_core():
    package = pathlib.Path(stratakit.__file__).parent
    problems = []
    for path in sorted(package.glob("*.py")):
        if path.name == "exact_linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and _called_name(node) == "rref":
                problems.append(f"{path.name}:{node.lineno} calls rref")
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "exact_linalg":
                problems += [f"{path.name}:{node.lineno} imports {a.name}" for a in node.names
                             if a.name.startswith("_")]
            if isinstance(node, ast.ClassDef) and node.name in FIELD_CLASSES:
                problems.append(f"{path.name}:{node.lineno} defines {node.name}")
    assert problems == []


# The routines read off rref: the oracle's ranks call none of them.
RREF_ROUTES = {"rref", "mat_rank", "kernel_cols", "span_kernel_basis", "span_basis", "solve_many",
               "quotient_coords", "sub_map", "in_basis"}
ORACLES = {"hom_dim_oracle", "sweep_matches_oracle"}


def _enclosing_functions(tree):
    """Each node of tree with the name of the top-level function it sits in (None outside one)."""
    for top in tree.body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            yield name, node


def test_reference_rref_ranks_only_for_the_path_oracle():
    """The dense reference_rref is the path oracle's elimination, independent of rref: the two
    oracle functions rank with it and call no rref route, and no other program code uses it."""
    package = pathlib.Path(stratakit.__file__).parent
    problems, oracle_calls = [], set()
    for path in sorted(package.glob("*.py")):
        for func, node in _enclosing_functions(ast.parse(path.read_text(), str(path))):
            in_oracle = path.name == "mesh_hom.py" and func in ORACLES
            named = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if named == "reference_rref":
                if in_oracle and isinstance(node, ast.Name):
                    oracle_calls.add(func)
                else:
                    problems.append(f"{path.name}:{node.lineno} uses reference_rref in {func}")
            if isinstance(node, ast.alias) and node.name == "reference_rref" and path.name != "mesh_hom.py":
                problems.append(f"{path.name} imports reference_rref")
            if in_oracle and isinstance(node, ast.Call) and _called_name(node) in RREF_ROUTES:
                problems.append(f"{path.name}:{node.lineno} {func} calls {_called_name(node)}")
    assert problems == []
    assert oracle_calls == ORACLES


def test_mesh_hom_is_the_only_composition_routine():
    """Composites are read off mesh_hom's pre- and postcomposition matrices, never walked elsewhere."""
    package = pathlib.Path(stratakit.__file__).parent
    problems = []
    for path in sorted(package.glob("*.py")):
        if path.name == "mesh_hom.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and _called_name(node) == "reduce_path":
                problems.append(f"{path.name}:{node.lineno} calls reduce_path")
    assert problems == []


def _qualified_calls(tree, prefix=""):
    """(qualified name of the enclosing functions and classes, called name) for each call in tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _qualified_calls(node, prefix + node.name + ".")
            continue
        if isinstance(node, ast.Call):
            yield prefix.rstrip("."), _called_name(node)
        yield from _qualified_calls(node, prefix)


# The two solves that are not induced maps: theta's inverse columns and the span test of a fiber stage.
SOLVE_MANY_CALLERS = {("kan_strata.py", "kan_intermediate"), ("kan_strata.py", "_FiberStage.attained")}


def test_kan_extensions_share_one_system_and_maps_go_through_in_basis():
    """kan_left builds its system with _naturality_rows, and nothing else in the package
    does (kan_right runs its recursion instead; the tests build K_R's system as its twin),
    and outside exact_linalg solve_many runs only where no induced map is read: every other
    solve goes through in_basis, the one place coordinates are solved for and laid out."""
    package = pathlib.Path(stratakit.__file__).parent
    builders, solves = set(), set()
    for path in sorted(package.glob("*.py")):
        if path.name == "exact_linalg.py":
            continue
        for func, called in _qualified_calls(ast.parse(path.read_text(), str(path))):
            if called == "_naturality_rows":
                builders.add((path.name, func))
            if called == "solve_many":  # a function nested in an allowed caller counts as that caller
                solves.add(next(((n, c) for n, c in SOLVE_MANY_CALLERS
                                 if n == path.name and (func == c or func.startswith(c + "."))), (path.name, func)))
    assert builders == {("kan_strata.py", "kan_left")}
    assert solves == SOLVE_MANY_CALLERS


def test_catmod_is_the_only_builder_of_windowed_categories():
    """Every windowed singular category comes from catmod (window_category), so its memos are shared."""
    package = pathlib.Path(stratakit.__file__).parent
    problems = []
    for path in sorted(package.glob("*.py")):
        if path.name == "catmod.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and (
                    _called_name(node) == "SCategoryWindow"
                    or any(isinstance(a, ast.Name) and a.id == "SCategoryWindow" for a in node.args)):
                problems.append(f"{path.name}:{node.lineno} constructs SCategoryWindow")
    assert problems == []


# ---------------------------------------------------------------------------
# Kernel bases: coordinates read off the free columns against elimination.
# ---------------------------------------------------------------------------

def _twin_solve_many(cols, vecs, field):
    """The elimination solve_many runs on plain columns: pivot on the columns, carry the vectors."""
    if not vecs:
        return []
    k, n = len(cols), len(vecs[0])
    red, pivots = rref([[c[i] for c in cols] + [v[i] for v in vecs] for i in range(n)], k, field)
    out = []
    for j in range(k, k + len(vecs)):
        if any(red[i][j] != field.zero for i in range(len(pivots), n)):
            out.append(None)
            continue
        x = [field.zero] * k
        for i, pc in enumerate(pivots):
            x[pc] = red[i][j]
        out.append(x)
    return out


class _RrefCount:
    """Counts rref calls made through exact_linalg while active."""

    def __enter__(self):
        self.real, self.calls = exact_linalg.rref, 0

        def counting(*args):
            self.calls += 1
            return self.real(*args)

        exact_linalg.rref = counting
        return self

    def __exit__(self, *exc):
        exact_linalg.rref = self.real


@st.composite
def _kernel_case(draw):
    field = draw(st.sampled_from(FIELDS))
    ncols = draw(st.integers(0, 5))
    rows = [[field.of_int(draw(small_entries)) for _ in range(ncols)] for _ in range(draw(st.integers(0, 4)))]
    return field, ncols, kernel_cols(rows, ncols, field)


@settings(max_examples=200, deadline=None)
@given(st.data(), _kernel_case())
def test_solve_many_on_kernel_bases_matches_elimination_twin(data, case):
    field, ncols, basis = case
    assert isinstance(basis, KernelBasis)
    vecs = data.draw(_vectors(field, ncols, 4, basis))
    with _RrefCount() as count:
        got = solve_many(basis, vecs, field)
    assert count.calls == 0
    assert got == _twin_solve_many(list(basis), vecs, field)
    with _RrefCount() as count:
        plain = solve_many(list(basis), vecs, field)  # a plain list of the same columns is eliminated
    assert count.calls == (1 if vecs else 0)
    assert plain == got


@settings(max_examples=200, deadline=None)
@given(st.data(), _kernel_case(), st.integers(0, 4))
def test_sub_map_on_kernel_bases_matches_elimination_twin(data, case, src_dim):
    field, ncols, basis = case
    # the images of the source columns: some inside the kernel, some not
    m_cols = [data.draw(_vectors(field, ncols, 1, basis).filter(len))[0] for _ in range(src_dim)]
    m = [[c[i] for c in m_cols] for i in range(ncols)]
    src_cols = data.draw(_vectors(field, src_dim, 3))
    want = _twin_sub_map(m, src_cols, list(basis), field)
    with _RrefCount() as count:
        assert sub_map(m, src_cols, basis, field) == want
    assert count.calls == 0
    assert sub_map(m, src_cols, list(basis), field) == want


def test_kernel_bases_on_empty_shapes():
    for field in FIELDS:
        one, zero = field.one, field.zero
        for basis in (kernel_cols([], 0, field), kernel_cols([[], []], 0, field)):
            assert basis == [] and solve_many(basis, [[], []], field) == [[], []]
        full = kernel_cols([[one, zero], [zero, one]], 2, field)  # the zero kernel
        assert (full, full.free, full.pivots) == ([], [], [0, 1])
        assert solve_many(full, [[zero, zero], [zero, one]], field) == [[], None]
        ident = kernel_cols([], 2, field)  # no rows: the identity basis
        assert (ident.free, ident.pivots) == ([0, 1], [])
        assert solve_many(ident, [[one, one]], field) == [[one, one]]
        assert sub_map([], [], full, field) == []


@settings(max_examples=200, deadline=None)
@given(st.data(), _kernel_case())
def test_span_kernel_basis_is_the_kernel_cols_basis(data, case):
    """Any independent vectors spanning a kernel give the basis kernel_cols gave, with
    its free and pivot columns, and coefficients that rebuild each column from them."""
    field, ncols, basis = case
    # an invertible upper-triangular recombination of the basis spans the same kernel
    mix = [[field.of_int(data.draw(small_entries)) if t > s else (field.one if t == s else field.zero)
            for t in range(len(basis))] for s in range(len(basis))]
    vecs = [[sum((m * col[i] for m, col in zip(row, basis)), field.zero) for i in range(ncols)] for row in mix]
    got, coefs = span_kernel_basis([{i: x for i, x in enumerate(v) if x} for v in vecs], ncols, field)
    assert (got, got.free, got.pivots) == (list(basis), basis.free, basis.pivots)
    for col, co in zip(got, coefs):
        assert col == [sum((c * v[i] for c, v in zip(co, vecs)), field.zero) for i in range(ncols)]
    if vecs:  # a repeated vector makes them dependent
        assert span_kernel_basis([{i: x for i, x in enumerate(v) if x} for v in vecs + vecs[:1]],
                                 ncols, field) is None


# ---------------------------------------------------------------------------
# in_basis, the one induced-map helper, against a solve per vector.
# ---------------------------------------------------------------------------

IN_BASIS_FIELDS = [QQ, PrimeField(2), PrimeField(3)]


def _twin_in_basis(vecs, cols, field):
    """Each vector solved on its own, by the identity-augmented elimination, then laid out as columns."""
    coords = [_twin_coords_in_col_span(list(cols), vec, field) for vec in vecs]
    if any(co is None for co in coords):
        return None
    return [[co[i] for co in coords] for i in range(len(cols))]


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(IN_BASIS_FIELDS), st.booleans())
def test_in_basis_matches_the_per_vector_twin(data, field, from_kernel):
    if from_kernel:  # a KernelBasis, whose coordinates are read off its free columns
        dim = data.draw(st.integers(0, 5))
        rows = [[field.of_int(data.draw(small_entries)) for _ in range(dim)]
                for _ in range(data.draw(st.integers(0, 4)))]
        cols = kernel_cols(rows, dim, field)
    else:  # plain spanning columns, possibly dependent, which are eliminated
        dim = data.draw(st.integers(1, 5))
        cols = data.draw(_vectors(field, dim, 4))
    # vectors inside the span and, drawn freely, mostly outside it
    vecs = data.draw(_vectors(field, dim, 4, cols))
    want = _twin_in_basis(vecs, cols, field)
    assert in_basis(vecs, cols, field) == want
    if from_kernel:
        assert in_basis(vecs, list(cols), field) == want


def test_in_basis_on_kernel_bases_and_vectors_leaving_the_span():
    for field in IN_BASIS_FIELDS:
        one, zero, two = field.one, field.zero, field.of_int(2)
        basis = kernel_cols([[one, one, zero]], 3, field)  # x0 = -x1: columns (-1, 1, 0), (0, 0, 1)
        assert isinstance(basis, KernelBasis)
        assert in_basis([[-two, two, one], [zero, zero, zero]], basis, field) == [[two, zero], [one, zero]]
        assert in_basis([[-two, two, one], [one, zero, zero]], basis, field) is None
        assert in_basis([], basis, field) == [[], []]
        assert in_basis([[zero, zero, zero]], kernel_cols(identity_rows(3, field), 3, field), field) == []
        assert in_basis([[one, zero, zero]], kernel_cols(identity_rows(3, field), 3, field), field) is None


# ---------------------------------------------------------------------------
# mat_vec, which skips zero entries by truthiness, against the dense sum.
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 30), st.integers(2, 13))
def test_gf_element_is_true_exactly_when_nonzero(v, p):
    assert bool(GFElement(v, p)) == (v % p != 0)
    assert bool(GFElement(-v, p)) == (v % p != 0)


def _mostly_zero(field):
    """Scalars of the field, zero about half the time."""
    return st.one_of(st.just(0), small_entries).map(field.of_int)


@st.composite
def _mat_vec_case(draw):
    field = draw(st.sampled_from(FIELDS + [PrimeField(2)]))
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    m = [draw(st.lists(_mostly_zero(field), min_size=cols, max_size=cols)) for _ in range(rows)]
    if rows and draw(st.booleans()):
        m[draw(st.integers(0, rows - 1))] = [field.zero] * cols  # a zero row
    vec = draw(st.lists(_mostly_zero(field), min_size=cols, max_size=cols))
    return field, m, vec


@settings(max_examples=200, deadline=None)
@given(_mat_vec_case())
def test_mat_vec_matches_the_dense_sum(case):
    field, m, vec = case
    want = [sum((row[j] * vec[j] for j in range(len(vec))), field.zero) for row in m]
    got = mat_vec(m, vec, field)
    assert got == want
    assert all(type(x) is type(field.zero) for x in got)


def test_mat_vec_on_empty_shapes():
    for field in FIELDS:
        assert mat_vec([], [], field) == []
        assert mat_vec([[], []], [], field) == [field.zero, field.zero]
        assert mat_vec([], [field.one, field.zero], field) == []


# ---------------------------------------------------------------------------
# The sparse rref against the dense reference_rref.
# ---------------------------------------------------------------------------

RREF_FIELDS = [QQ, PrimeField(2), PrimeField(3)]
QQ_FORMS = ["int", "Fraction", "mixed"]


def _qq_scalars(form):
    """Rationals as ints, as Fractions (some not integral), or as either."""
    ints = small_entries
    fractions = st.builds(Fraction, small_entries, st.sampled_from([1, 1, 2, 3]))
    return {"int": ints, "Fraction": fractions, "mixed": st.one_of(ints, fractions)}[form]


def _exact(x):
    return type(x) is int or type(x) is Fraction


@st.composite
def _rref_case(draw):
    """Rows of an ncols-column matrix with extra augmented columns, each given as a list or a dict."""
    field = draw(st.sampled_from(RREF_FIELDS))
    ncols, extra = draw(st.integers(0, 6)), draw(st.integers(0, 3))
    width = ncols + extra
    # over QQ the entries are ints, Fractions (some of them not integral) or a mix of both
    scalar = _qq_scalars(draw(st.sampled_from(QQ_FORMS))) if field is QQ else st.builds(field.of_int, small_entries)
    dense = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 4)) == 0:
            dense.append([field.zero] * width)
        else:
            dense.append([draw(scalar) for _ in range(width)])
    given = []
    for row in dense:
        kind = draw(st.sampled_from(["list", "dict", "dict-with-zeros"]))
        if kind == "list":
            given.append(list(row))
        else:
            given.append({c: x for c, x in enumerate(row) if kind == "dict-with-zeros" or x != field.zero})
    return field, ncols, width, dense, given


@settings(max_examples=300, deadline=None)
@given(_rref_case())
def test_rref_matches_the_dense_reference(case):
    field, ncols, width, dense, given = case
    snapshot = [dict(r) if isinstance(r, dict) else list(r) for r in given]
    red, pivots = rref(given, ncols, field)
    ref, ref_pivots = reference_rref(dense, ncols, field)
    assert given == snapshot  # the rows given are left as they were
    if field is QQ:  # no float anywhere, whatever mix of ints and Fractions came in
        assert all(_exact(x) for rows in (red, ref) for row in rows for x in row)
    assert pivots == ref_pivots
    rank = len(pivots)
    assert len(red) == len(dense)
    # one width for every row: at least ncols, and past ncols as far as an entry is given
    assert len({len(row) for row in red}) <= 1 and all(ncols <= len(row) <= width for row in red)
    # the reduced form on the first ncols columns is unique
    assert [row[:ncols] for row in red[:rank]] == [row[:ncols] for row in ref[:rank]]
    assert all(x == field.zero for row in red[rank:] for x in row[:ncols])
    # an augmented column is consistent exactly when the rows past the rank are zero there,
    # and then its entries in the pivot rows are the unique solution
    def at(row, j):
        return row[j] if j < len(row) else field.zero

    for j in range(ncols, width):
        consistent = all(at(row, j) == field.zero for row in red[rank:])
        assert consistent == all(row[j] == field.zero for row in ref[rank:])
        if consistent:
            assert [at(row, j) for row in red[:rank]] == [row[j] for row in ref[:rank]]


def test_rref_on_empty_shapes():
    for field in RREF_FIELDS:
        assert rref([], 0, field) == reference_rref([], 0, field) == ([], [])
        assert rref([], 3, field) == reference_rref([], 3, field) == ([], [])
        assert rref([[], []], 0, field) == reference_rref([[], []], 0, field) == ([[], []], [])
        assert rref([{}, {}], 0, field) == ([[], []], [])
        zero, one = field.zero, field.one
        # no columns to pivot on: augmented entries are carried as they are
        assert rref([[one, zero]], 0, field) == reference_rref([[one, zero]], 0, field) == ([[one, zero]], [])
        assert rref([{1: one}], 0, field) == ([[zero, one]], [])
        assert rref([{}], 2, field) == reference_rref([[zero, zero]], 2, field) == ([[zero, zero]], [])


# ---------------------------------------------------------------------------
# QQ scalars: an int while integral, a Fraction only when not.
# ---------------------------------------------------------------------------

def test_rational_field_scalars_are_ints_until_a_division():
    assert (QQ.zero, QQ.one, QQ.of_int(-4)) == (0, 1, -4)
    assert all(type(x) is int for x in (QQ.zero, QQ.one, QQ.of_int(-4)))
    assert QQ.inv(1) == 1 and type(QQ.inv(1)) is int
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(-3)) is Fraction and QQ.inv(-3) == Fraction(-1, 3)
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2) and type(QQ.inv(Fraction(1))) is Fraction
    gf = PrimeField(5)
    assert gf.inv(gf.of_int(2)) == gf.of_int(3)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


@st.composite
def _scalar_twins(draw):
    """One QQ matrix and a few vectors, drawn as ints and given three ways: as ints, as
    Fractions, and mixed (each entry an int or a Fraction at random)."""
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    rows = [[draw(small_entries) for _ in range(ncols)] for _ in range(nrows)]
    vecs = [[draw(small_entries) for _ in range(nrows)] for _ in range(draw(st.integers(0, 3)))]
    mixed = st.sampled_from([int, Fraction])
    forms = [lambda x: x, Fraction, lambda x: draw(mixed)(x)]
    return [([[f(x) for x in r] for r in rows], [[f(x) for x in v] for v in vecs], ncols) for f in forms]


def _routes(rows, vecs, ncols):
    """Every result the routes read off rref give on one input."""
    cols = [list(c) for c in zip(*rows)] if rows else [[] for _ in range(ncols)]
    red, pivots = rref(rows, ncols, QQ)
    kernel = kernel_cols(rows, ncols, QQ)
    return {
        "rref": (red, pivots),
        "kernel_cols": (list(kernel), kernel.free, kernel.pivots),
        "solve_many": solve_many(cols, vecs, QQ) if rows else [],
        "span_basis": span_basis(cols, len(rows), QQ),
        "quotient_coords": quotient_coords(len(rows), cols, QQ),
    }


def _entries(x):
    """Every number inside a nested result; its pivot and index lists are ints too."""
    if isinstance(x, dict):
        yield from _entries(list(x.values()))
    elif isinstance(x, (list, tuple)):
        for y in x:
            yield from _entries(y)
    elif x is not None:
        yield x


@settings(max_examples=200, deadline=None)
@given(_scalar_twins())
def test_rref_routes_agree_on_int_fraction_and_mixed_scalars(twins):
    """ints, Fractions and a mix give the same pivots and equal values everywhere, and no
    route ever returns a float."""
    results = [_routes(*t) for t in twins]
    assert results[0] == results[1] == results[2]
    for res in results:
        for name, value in res.items():
            assert all(_exact(x) for x in _entries(value)), name


def test_no_division_on_scalars_outside_the_exact_core():
    """Only exact_linalg divides (QQ.inv and the oracle's reference_rref); anywhere else an
    int / int would make a float out of two integral rationals."""
    package = pathlib.Path(stratakit.__file__).parent
    problems = []
    for path in sorted(package.glob("*.py")):
        if path.name == "exact_linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                problems.append(f"{path.name}:{node.lineno} divides")
    assert problems == []
