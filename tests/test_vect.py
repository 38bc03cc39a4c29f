import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brokenlines.vect import (
    LinMap,
    NonunitalAlgebra,
    VectObject,
    block_map,
    direct_sum,
    distribute,
    matrix_algebra_2x2,
    nilpotent_upper3,
    rational_algebra,
    tensor,
    zero_algebra,
    _canonical,
    _identity_rows,
)

# ------------------------------------------------------- matrix oracle
# structure constants recomputed here from literal matrix products


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][m] * b[m][j] for m in range(n)) for j in range(n))
        for i in range(n)
    )


def unit(n, i, j):
    return tuple(
        tuple(1 if (r, c) == (i, j) else 0 for c in range(n)) for r in range(n)
    )


def constants_from_basis(basis, n):
    d = len(basis)
    index = {b: k for k, b in enumerate(basis)}
    c = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            prod = mat_mul(basis[i], basis[j])
            if any(any(row) for row in prod):
                c[index[prod]][i][j] = Fraction(1)
    return c


def test_nilpotent_constants_match_matrix_oracle():
    basis = [unit(3, 0, 1), unit(3, 0, 2), unit(3, 1, 2)]
    oracle = constants_from_basis(basis, 3)
    built = nilpotent_upper3()
    assert [[list(r) for r in p] for p in built.c] == [
        [list(r) for r in p] for p in oracle
    ]
    # e12 . e23 = e13
    assert built.c[1][0][2] == 1
    assert sum(x for p in built.c for r in p for x in r) == 1


def test_mat2_constants_match_matrix_oracle():
    basis = [unit(2, 0, 0), unit(2, 0, 1), unit(2, 1, 0), unit(2, 1, 1)]
    oracle = constants_from_basis(basis, 2)
    built = matrix_algebra_2x2()
    assert [[list(r) for r in p] for p in built.c] == [
        [list(r) for r in p] for p in oracle
    ]


def test_validate_algebra_examples():
    assert zero_algebra(1).validate() is None
    assert zero_algebra(4).validate() is None
    assert nilpotent_upper3().validate() is None
    assert matrix_algebra_2x2().validate() is None
    assert rational_algebra().validate() is None


def test_validate_algebra_reports_triple():
    # a non-associative product: e0 . e0 = e1, e1 . e0 = e0, rest zero;
    # (e0 e0) e0 = e0 but e0 (e0 e0) = e0 e1 = 0
    c = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
    bad = NonunitalAlgebra(2, c)
    assert bad.validate() == validate_oracle(bad) == (0, 0, 0)


def validate_oracle(algebra):
    """The first basis triple (i, j, k), in lexicographic order, where
    sum_m c[m][i][j] c[l][m][k] != sum_m c[m][j][k] c[l][i][m] for some l."""
    c, d = algebra.c, algebra.dim
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    lhs = sum(c[m][i][j] * c[l][m][k] for m in range(d))
                    rhs = sum(c[m][j][k] * c[l][i][m] for m in range(d))
                    if lhs != rhs:
                        return (i, j, k)
    return None


@pytest.mark.parametrize("d", [3, 4])
def test_validate_reads_the_last_column_as_the_last_triple(d):
    # u = e_(d-1): u u = e0 and e0 u = e1, every other product zero, so
    # (u u) u = e1 but u (u u) = u e0 = 0, and every other triple
    # multiplies to zero both ways: column d^3 - 1 is the one that differs
    c = [[[0] * d for _ in range(d)] for _ in range(d)]
    c[0][d - 1][d - 1] = 1
    c[1][0][d - 1] = 1
    bad = NonunitalAlgebra(d, c)
    assert bad.validate() == validate_oracle(bad) == (d - 1, d - 1, d - 1)


_ASSOCIATIVE_BY_DIM = {1: rational_algebra, 3: nilpotent_upper3, 4: matrix_algebra_2x2}


@st.composite
def perturbed_algebras(draw):
    """An algebra of dim <= 4 with int or Fraction constants: the zero
    algebra, or an associative builtin of that dim, with a few constants
    overwritten, so the first failing triple falls anywhere."""
    d = draw(st.integers(0, 4))
    c = [[list(row) for row in plane] for plane in zero_algebra(d).c]
    if d in _ASSOCIATIVE_BY_DIM and draw(st.booleans()):
        c = [[list(row) for row in plane] for plane in _ASSOCIATIVE_BY_DIM[d]().c]
    if draw(st.booleans()):
        values = st.integers(-2, 2)
    else:
        values = st.fractions(-2, 2, max_denominator=3)
    index = st.integers(0, max(d - 1, 0))
    for _ in range(draw(st.integers(0, 3)) if d else 0):
        k, i, j = draw(index), draw(index), draw(index)
        c[k][i][j] = draw(values)
    return NonunitalAlgebra(d, c)


@settings(max_examples=300, deadline=None)
@given(perturbed_algebras())
def test_validate_matches_the_constant_loop_oracle(algebra):
    assert algebra.validate() == validate_oracle(algebra)


def test_fiber_products_are_tensors_of_left_folds():
    a = matrix_algebra_2x2()
    mult, ident = a.multiplication(), LinMap.identity(a.space)
    mu3 = mult @ tensor(mult, ident)
    products = a.fiber_products([(1, 3), (2,), (1, 3), (1,)])
    assert list(products) == [(1, 3), (2,), (1,)]
    assert products[(1, 3)] == tensor(ident, mu3)
    assert products[(2,)] == mult
    assert products[(1,)].is_identity()
    assert a.fiber_products([]) == {}


# ---------------------------------------------------------------- tensor


def test_tensor_objects():
    assert tensor(VectObject(2), VectObject(3)) == VectObject(6)
    assert tensor(VectObject(1), VectObject(5)) == VectObject(5)


def test_tensor_with_dim_one_is_plain_scaling():
    scalar = LinMap(VectObject(1), VectObject(1), [[Fraction(3)]])
    m = LinMap(VectObject(2), VectObject(2), [[1, 2], [0, 1]])
    out = tensor(scalar, m)
    assert out.rows == tuple(
        tuple(Fraction(3) * x for x in row) for row in m.rows
    )


def test_tensor_strictly_associative():
    a = LinMap(VectObject(2), VectObject(1), [[1, 2]])
    b = LinMap(VectObject(1), VectObject(2), [[3], [4]])
    c = LinMap(VectObject(2), VectObject(2), [[0, 1], [1, 0]])
    assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))
    # hence the associator permutation is literally the identity matrix
    for da, db, dc in itertools.product((1, 2, 3), repeat=3):
        ia = LinMap.identity(VectObject(da))
        ib = LinMap.identity(VectObject(db))
        ic = LinMap.identity(VectObject(dc))
        assoc = tensor(tensor(ia, ib), ic)
        assert assoc.is_identity()


def test_pentagon_identity_on_small_dims():
    # with identity associators the pentagon is a literal matrix equation
    for dims in itertools.product((1, 2, 3), repeat=4):
        idents = [LinMap.identity(VectObject(d)) for d in dims]
        lhs = tensor(tensor(tensor(*idents[:2]), idents[2]), idents[3])
        rhs = tensor(idents[0], tensor(idents[1], tensor(*idents[2:])))
        assert lhs == rhs


def test_interchange_law():
    f = LinMap(VectObject(2), VectObject(2), [[1, 1], [0, 1]])
    f2 = LinMap(VectObject(2), VectObject(2), [[2, 0], [1, 1]])
    g = LinMap(VectObject(2), VectObject(2), [[0, 1], [1, 0]])
    g2 = LinMap(VectObject(2), VectObject(2), [[1, 2], [3, 4]])
    assert tensor(f, g) @ tensor(f2, g2) == tensor(f @ f2, g @ g2)


# ------------------------------------------------------------ direct sum


def test_empty_sum_is_zero_object():
    assert direct_sum([]) == VectObject(0)


def test_block_sum():
    a = LinMap(VectObject(2), VectObject(2), [[1, 2], [3, 4]])
    b = LinMap(VectObject(3), VectObject(3), [[5, 0, 0], [0, 6, 0], [0, 0, 7]])
    s = direct_sum([a, b])
    assert s.source == VectObject(5)
    assert s.rows[0][:2] == (1, 2)
    assert s.rows[2][2] == 5
    assert s.rows[4][4] == 7
    assert s.rows[0][2:] == (0, 0, 0)


def test_tensor_distributes_over_direct_sum():
    a = LinMap(VectObject(1), VectObject(1), [[2]])
    b = LinMap(VectObject(2), VectObject(2), [[0, 1], [1, 0]])
    c = LinMap(VectObject(1), VectObject(2), [[1], [1]])
    lhs = tensor(a, direct_sum([b, c]))
    # dims add then multiply
    assert lhs.source == VectObject(3)
    assert lhs.target == VectObject(4)
    rhs = direct_sum([tensor(a, b), tensor(a, c)])
    assert lhs == rhs


# ------------------------------------------------------------- inverses


def test_inverse_exact():
    m = LinMap(VectObject(2), VectObject(2), [[1, Fraction(1, 2)], [0, 2]])
    inv = m.inverse()
    assert (m @ inv).is_identity()
    assert (inv @ m).is_identity()


def test_singular_rejected():
    m = LinMap(VectObject(2), VectObject(2), [[1, 1], [1, 1]])
    assert not m.is_invertible()
    with pytest.raises(ValueError):
        m.inverse()


def test_non_square_not_invertible():
    m = LinMap(VectObject(1), VectObject(2), [[1], [0]])
    assert not m.is_invertible()


def test_multiplication_map_shape():
    alg = nilpotent_upper3()
    m = alg.multiplication()
    assert m.source == VectObject(9)
    assert m.target == VectObject(3)
    # e12 (index 0) tensor e23 (index 2) goes to e13 (index 1)
    col = 0 * 3 + 2
    assert [row[col] for row in m.rows] == [0, 1, 0]


def test_algebra_json_roundtrip():
    alg = nilpotent_upper3()
    assert NonunitalAlgebra.from_json(alg.to_json()) == alg


@pytest.mark.parametrize("dim", [1.9, 1.0, "1", True], ids=repr)
def test_dimension_must_be_an_integer(dim):
    # int() would truncate 1.9 and parse "1", and operator.index reads True as 1
    message = f"dimension must be an integer, got {dim!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        NonunitalAlgebra.from_json({"dim": dim, "c": [[["1"]]]})
    with pytest.raises(ValueError, match=re.escape(message)):
        VectObject(dim)


INEXACT = [0.1, 1.0, True, False]


def inexact(bad):
    return re.escape(f"must be an int, a Fraction or a 'p/q' string, got {bad!r}")


@pytest.mark.parametrize("bad", INEXACT, ids=repr)
def test_exact_entries_reject_floats_and_bools(bad):
    # Fraction(0.1) is the binary value 3602879701896397/36028797018963968,
    # and Fraction(True) is 1
    with pytest.raises(ValueError, match=r"^rows\[0\]\[1\] " + inexact(bad)):
        LinMap(VectObject(2), VectObject(1), [[1, bad]])
    c = [[[0, 0], [0, 0]], [[0, 0], [bad, 0]]]
    with pytest.raises(ValueError, match=r"^c\[1\]\[1\]\[0\] " + inexact(bad)):
        NonunitalAlgebra(2, c)
    with pytest.raises(ValueError, match=r"^c\[1\]\[1\]\[0\] " + inexact(bad)):
        NonunitalAlgebra.from_json({"dim": 2, "c": c})


def test_a_zero_denominator_is_named_with_its_entry():
    # Fraction("1/0") raises ZeroDivisionError: Fraction(1, 0), naming neither
    message = re.escape("has a zero denominator, got '1/0'")
    with pytest.raises(ValueError, match=r"^rows\[0\]\[1\] " + message):
        LinMap(VectObject(2), VectObject(1), [[1, "1/0"]])
    with pytest.raises(ValueError, match=r"^c\[0\]\[0\]\[0\] " + message):
        NonunitalAlgebra.from_json({"dim": 1, "c": [[["1/0"]]]})


def test_exact_entries_take_ints_fractions_and_strings():
    m = LinMap(VectObject(5), VectObject(1), [[0, 2, Fraction(4, 2), "1/2", "-3"]])
    assert m.sparse == (((1, 2), (2, 2), (3, Fraction(1, 2)), (4, -3)),)
    assert [type(x) for _, x in m.sparse[0]] == [int, int, Fraction, int]
    alg = NonunitalAlgebra(1, [[["6/3"]]])
    assert alg.c == (((2,),),) and type(alg.c[0][0][0]) is int


def test_map_errors_name_the_maps():
    two, three = LinMap.identity(VectObject(2)), LinMap.identity(VectObject(3))
    with pytest.raises(ValueError, match=re.escape(
        "maps not composable: LinMap(2x2) after LinMap(3x3)"
    )):
        two @ three
    with pytest.raises(ValueError, match=re.escape(
        "only square maps can be inverted, got LinMap(3x2)"
    )):
        LinMap.zero(VectObject(2), VectObject(3)).inverse()
    with pytest.raises(ValueError, match=re.escape(
        "map LinMap(2x2) is singular: no pivot in column 1"
    )):
        LinMap(VectObject(2), VectObject(2), [[1, 2], [2, 4]]).inverse()


# ------------------------------------------- sparse maps vs a dense oracle
# every operation is recomputed here on plain lists of Fractions


def dense_mul(a, b, cols):
    return [
        [sum((row[m] * b[m][j] for m in range(len(b))), Fraction(0)) for j in range(cols)]
        for row in a
    ]


def dense_kron(a, b):
    return [
        [x * y for x in a_row for y in b_row] for a_row in a for b_row in b
    ]


def dense_blocks(target_dims, source_dims, blocks):
    out = [[Fraction(0)] * sum(source_dims) for _ in range(sum(target_dims))]
    for (r, c), rows in blocks.items():
        r0, c0 = sum(target_dims[:r]), sum(source_dims[:c])
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                out[r0 + i][c0 + j] = x
    return out


def dense_inverse(a):
    """Gauss-Jordan on the augmented matrix; None if singular."""
    n = len(a)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def add(f, g):
    """f + g, for parallel maps f and g."""
    if f.source != g.source or f.target != g.target:
        raise ValueError("maps must be parallel to add")
    out = []
    for ra, rb in zip(f.sparse, g.sparse):
        acc = dict(ra)
        for c, x in rb:
            acc[c] = acc.get(c, 0) + x
        out.append(_canonical(acc))
    return LinMap._of(f.source, f.target, tuple(out))


def as_dense(m):
    return [list(row) for row in m.rows]


def exact_entry(x):
    """Integral values are stored as int, the rest as Fraction."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def assert_canonical(m):
    assert len(m.sparse) == m.target.dim
    for row in m.sparse:
        cols = [c for c, _ in row]
        assert cols == sorted(set(cols))
        assert all(0 <= c < m.source.dim and x for c, x in row)
        assert all(exact_entry(x) for _, x in row)


entries = st.one_of(
    st.just(Fraction(0)),
    st.just(0),
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
dims = st.integers(min_value=0, max_value=4)


def matrices(rows, cols):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


@st.composite
def linmaps(draw, source=None, target=None):
    source = draw(dims) if source is None else source
    target = draw(dims) if target is None else target
    rows = draw(matrices(target, source))
    return LinMap(VectObject(source), VectObject(target), rows)


@st.composite
def composable_pairs(draw):
    a, b, c = draw(dims), draw(dims), draw(dims)
    return draw(linmaps(b, c)), draw(linmaps(a, b))


@st.composite
def parallel_pairs(draw):
    s, t = draw(dims), draw(dims)
    return draw(linmaps(s, t)), draw(linmaps(s, t))


@given(linmaps())
def test_dense_rows_roundtrip(m):
    assert_canonical(m)
    assert all(type(x) is Fraction for row in m.rows for x in row)
    assert LinMap(m.source, m.target, m.rows) == m
    assert hash(LinMap(m.source, m.target, m.rows)) == hash(m)


@given(composable_pairs())
def test_compose_matches_oracle(pair):
    f, g = pair
    out = f @ g
    assert_canonical(out)
    assert as_dense(out) == dense_mul(as_dense(f), as_dense(g), g.source.dim)


@given(parallel_pairs())
def test_add_matches_oracle(pair):
    f, g = pair
    out = add(f, g)
    assert_canonical(out)
    assert as_dense(out) == [
        [x + y for x, y in zip(ra, rb)] for ra, rb in zip(as_dense(f), as_dense(g))
    ]


@given(linmaps(), linmaps())
def test_tensor_matches_oracle(f, g):
    out = tensor(f, g)
    assert_canonical(out)
    assert out.source.dim == f.source.dim * g.source.dim
    assert out.target.dim == f.target.dim * g.target.dim
    assert as_dense(out) == dense_kron(as_dense(f), as_dense(g))


def test_tensor_of_identities_is_the_shared_identity():
    for a, b in itertools.product(range(5), repeat=2):
        dense = [[int(i == j) for j in range(a)] for i in range(a)]
        g = LinMap.identity(VectObject(b))
        # a shared identity, and one built entry by entry that equals it
        for f in (LinMap.identity(VectObject(a)), LinMap(VectObject(a), VectObject(a), dense)):
            out = tensor(f, g)
            assert as_dense(out) == dense_kron(as_dense(f), as_dense(g))
            assert out.sparse is _identity_rows(a * b)


@given(st.lists(linmaps(), max_size=4))
def test_direct_sum_matches_oracle(maps):
    if not maps:
        return
    out = direct_sum(maps)
    assert_canonical(out)
    assert as_dense(out) == dense_blocks(
        [m.target.dim for m in maps],
        [m.source.dim for m in maps],
        {(i, i): as_dense(m) for i, m in enumerate(maps)},
    )


@st.composite
def block_layouts(draw):
    targets = draw(st.lists(dims, max_size=3))
    sources = draw(st.lists(dims, max_size=3))
    cells = [(r, c) for r in range(len(targets)) for c in range(len(sources))]
    chosen = draw(st.lists(st.sampled_from(cells), unique=True) if cells else st.just([]))
    blocks = {
        (r, c): draw(linmaps(sources[c], targets[r])) for r, c in chosen
    }
    return targets, sources, blocks


@given(block_layouts())
def test_block_map_matches_oracle(layout):
    targets, sources, blocks = layout
    out = block_map(
        [VectObject(d) for d in targets], [VectObject(d) for d in sources], blocks
    )
    assert_canonical(out)
    assert out.source.dim == sum(sources)
    assert out.target.dim == sum(targets)
    assert as_dense(out) == dense_blocks(
        targets, sources, {key: as_dense(m) for key, m in blocks.items()}
    )


@given(dims, st.lists(dims, max_size=4))
def test_distribute_matches_oracle(a, parts):
    # label basis vectors (i, j, q): i in a, q in the j-th part; the
    # source lists them second index fastest, the target part by part
    src = [(i, j, q) for i in range(a) for j, p in enumerate(parts) for q in range(p)]
    tgt = [(i, j, q) for j, p in enumerate(parts) for i in range(a) for q in range(p)]
    out = distribute(VectObject(a), [VectObject(p) for p in parts])
    assert_canonical(out)
    assert out.source.dim == len(src) and out.target.dim == len(tgt)
    assert as_dense(out) == [[Fraction(int(s == t)) for s in src] for t in tgt]


@given(st.integers(0, 6).flatmap(lambda n: st.permutations(range(n))))
def test_permutation_matches_dense_oracle(cols):
    n = len(cols)
    out = LinMap.permutation(cols)
    assert_canonical(out)
    assert out.source == out.target == VectObject(n)
    assert as_dense(out) == [[Fraction(int(c == cols[r])) for c in range(n)]
                             for r in range(n)]
    # a permutation's inverse is its transpose
    back = [cols.index(c) for c in range(n)]
    assert out.inverse() == LinMap.permutation(back)


@given(st.lists(st.integers(-2, 7), max_size=6).filter(
    lambda cols: sorted(cols) != list(range(len(cols)))
))
def test_permutation_rejects_other_columns(cols):
    with pytest.raises(ValueError, match="must permute"):
        LinMap.permutation(cols)


@st.composite
def square_maps(draw):
    n = draw(dims)
    return draw(linmaps(n, n))


@settings(max_examples=200)
@given(square_maps())
def test_inverse_matches_oracle(m):
    want = dense_inverse(as_dense(m))
    assert m.is_invertible() == (want is not None)
    if want is None:
        with pytest.raises(ValueError):
            m.inverse()
        return
    inv = m.inverse()
    assert_canonical(inv)
    assert as_dense(inv) == want
    assert (m @ inv).is_identity() and (inv @ m).is_identity()


# ---------------------------------------------------- integer entries
# integral entries are stored as int, and a map cannot tell whether it
# was built from ints or from Fractions


@given(st.data())
def test_fraction_and_int_inputs_agree(data):
    source, target = data.draw(dims), data.draw(dims)
    ints = data.draw(st.lists(
        st.lists(st.integers(-5, 5), min_size=source, max_size=source),
        min_size=target, max_size=target,
    ))
    fractions = [[Fraction(x) for x in row] for row in ints]
    a = LinMap(VectObject(source), VectObject(target), ints)
    b = LinMap(VectObject(source), VectObject(target), fractions)
    assert a == b and hash(a) == hash(b)
    assert repr(a.sparse) == repr(b.sparse)
    assert all(type(x) is int for row in b.sparse for _, x in row)
    as_json = [[str(x) for x in row] for row in b.rows]
    assert as_json == [[str(x) for x in row] for row in fractions]


def scalar(x):
    return LinMap(VectObject(1), VectObject(1), [[x]])


def entry(m):
    ((_, x),) = m.sparse[0]
    return x


def test_integral_results_of_fractions_are_ints():
    half, two = scalar(Fraction(1, 2)), scalar(Fraction(4, 2))
    assert type(entry(two)) is int
    assert type(entry(half @ two)) is int
    assert type(entry(add(half, half))) is int
    assert type(entry(tensor(scalar(Fraction(3, 2)), scalar(Fraction(2, 3))))) is int
    assert entry(half.inverse()) == 2 and type(entry(half.inverse())) is int
    assert entry(two.inverse()) == Fraction(1, 2)
    for m in (
        LinMap.identity(VectObject(3)),
        distribute(VectObject(2), [VectObject(1), VectObject(2)]),
        block_map([VectObject(1)], [VectObject(1)] * 2, {(0, 0): two, (0, 1): half}),
    ):
        assert_canonical(m)


def test_algebra_constants_are_ints():
    for alg in (
        zero_algebra(2), rational_algebra(), nilpotent_upper3(), matrix_algebra_2x2()
    ):
        for a in (alg, NonunitalAlgebra.from_json(alg.to_json())):
            assert all(type(x) is int for plane in a.c for row in plane for x in row)
    one = NonunitalAlgebra(1, [[[Fraction(2, 2)]]])
    assert one == rational_algebra() and hash(one) == hash(rational_algebra())
    halves = NonunitalAlgebra(1, [[[Fraction(1, 2)]]])
    assert halves.to_json() == {"dim": 1, "c": [[["1/2"]]]}
    assert NonunitalAlgebra.from_json(halves.to_json()) == halves


def unimodular(dim, rng, ops):
    """An integer matrix of determinant +-1: a signed permutation times
    `ops` elementary row operations with coefficient +-1."""
    perm = rng.sample(range(dim), dim)
    p = [[rng.choice((-1, 1)) if perm[i] == j else 0 for j in range(dim)]
         for i in range(dim)]
    for _ in range(ops if dim > 1 else 0):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((-1, 1))
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]
    return p


def test_unimodular_inverse_stays_integral():
    rng = random.Random(20181)
    for dim in range(1, 7):
        for ops in (3, 12):
            m = LinMap(VectObject(dim), VectObject(dim), unimodular(dim, rng, ops))
            inv = m.inverse()
            assert all(type(x) is int for row in inv.sparse for _, x in row)
            assert (m @ inv).is_identity() and (inv @ m).is_identity()
