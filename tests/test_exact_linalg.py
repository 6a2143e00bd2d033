from fractions import Fraction

from hypothesis import given, settings, strategies as st

from stratakit.exact_linalg import (
    QQ,
    RatMatrix,
    format_fraction,
    parse_fraction,
    quotient_coords,
    quotient_map,
    sub_map,
)

small_entries = st.integers(min_value=-4, max_value=4)


def matrix_strategy(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(st.lists(small_entries, min_size=c, max_size=c), min_size=r, max_size=r)))


def test_kernel_of_zero_matrix():
    assert RatMatrix.zero(2, 3).kernel_basis().cols == 3


def test_kernel_of_identity():
    assert RatMatrix.identity(3).kernel_basis().cols == 0


def test_rank_one_kernel():
    a = RatMatrix([[1, 2], [2, 4]])
    k = a.kernel_basis()
    assert k.cols == 1
    v = k.column(0)
    # spanned by (2, -1) up to scale
    assert v[0] * Fraction(-1) == v[1] * Fraction(2)
    assert a.mul(k).is_zero()


def test_solve_identity():
    assert RatMatrix.identity(3).solve([1, 2, 3]) == [1, 2, 3]


def test_solve_inconsistent_certificate():
    a = RatMatrix([[0]])
    x, y = a.solve_certified([1])
    assert x is None
    assert sum(yi * 0 for yi in y) == 0
    assert sum(yi * b for yi, b in zip(y, [Fraction(1)])) != 0
    assert a.solve([1]) == "inconsistent"


def test_coker_projection_full_rank_square():
    assert RatMatrix([[1, 1], [0, 1]]).coker_projection().rows == 0


@settings(max_examples=60, deadline=None)
@given(matrix_strategy())
def test_rank_nullity_exact(rows):
    a = RatMatrix(rows)
    assert a.rank() + a.kernel_basis().cols == a.cols
    assert a.mul(a.kernel_basis()).is_zero() or a.kernel_basis().cols == 0


@settings(max_examples=60, deadline=None)
@given(matrix_strategy(), st.lists(small_entries, min_size=1, max_size=4))
def test_solve_or_certify(rows, b):
    a = RatMatrix(rows)
    b = (b * 4)[: a.rows]
    x, y = a.solve_certified(b)
    if x is not None:
        got = [sum(r[j] * x[j] for j in range(a.cols)) for r in a.entries]
        assert got == [Fraction(v) for v in b]
    else:
        left = [sum(y[i] * a.entries[i][j] for i in range(a.rows)) for j in range(a.cols)]
        assert all(v == 0 for v in left)
        assert sum(yi * bi for yi, bi in zip(y, b)) != 0


@settings(max_examples=40, deadline=None)
@given(matrix_strategy())
def test_coker_projection_contract(rows):
    a = RatMatrix(rows)
    p = a.coker_projection()
    assert p.rows == a.rows - a.rank()
    if p.rows and a.cols:
        assert p.mul(a).is_zero()


def test_quotient_coords_reduction():
    # quotient of k^3 by span((1,1,0)): generators 0 and 1 agree up to sign
    kept, coords = quotient_coords(3, [[QQ.one, QQ.one, QQ.zero]], QQ)
    assert len(kept) == 2
    assert coords[0] == [-c for c in coords[1]] or coords[1] == [-c for c in coords[0]]


def _q(rows):
    return [[Fraction(x) for x in row] for row in rows]


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
    kept, coords = quotient_coords(3, _q([[1, 1, 0]]), QQ)
    assert kept == [0, 2]
    assert coords == _q([[1, 0], [-1, 0], [0, 1]])
    m = _q([[1, 0, 0], [0, 1, 0], [0, 0, 1]])  # k^3 -> k^3, columns are images
    assert quotient_map(m, [0, 1, 2], coords, QQ) == _q([[1, -1, 0], [0, 0, 1]])
    # a quotient source keeps only some generators: the map is read on those columns
    assert quotient_map(_q([[2, 5], [3, 7], [0, 1]]), [1], coords, QQ) == _q([[-2], [1]])


def test_quotient_map_empty_bases():
    kept, coords = quotient_coords(2, [], QQ)
    m = _q([[1, 2], [3, 4]])
    assert quotient_map(m, [], coords, QQ) == [[], []]
    assert quotient_map([], [0, 1], [], QQ) == []
    _, zero = quotient_coords(2, _q([[1, 0], [0, 1]]), QQ)
    assert quotient_map(m, [0], zero, QQ) == []


def test_fraction_json_round_trip():
    for s in ["3", "-7/2", "0", "12/35"]:
        assert format_fraction(parse_fraction(s)) == s
    m = RatMatrix([[Fraction(1, 2), 3], [0, Fraction(-5, 7)]])
    assert RatMatrix.from_json(m.to_json()) == m


def test_image_basis_deterministic_pivots():
    a = RatMatrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    img = a.image_basis()
    assert img.cols == a.rank() == 2
    # pivot columns are the leftmost independent ones
    assert img.column(0) == a.column(0)
