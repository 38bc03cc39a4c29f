"""Finite-dimensional exact-rational vector spaces, tensor products,
direct sums, and nonunital associative algebras by structure constants.

The model is strictly skeletal: an object is its dimension, and the basis
of V (x) W is ordered with the second index fastest, so iterated tensor
products literally agree and the associator is the identity permutation.
All arithmetic is exact; a float or a bool entry is rejected.

A map stores only its nonzero entries, one tuple of (col, value) pairs
per row in increasing column order; structure-constant matrices are
mostly zeros.  An integral entry is stored as an `int` and any other as
a `Fraction`, and so are the structure constants of an algebra, so
integer matrices multiply in `int` arithmetic.  `3 == Fraction(3)`, the
two hash alike and print alike, so equality, hashing and JSON cannot
tell them apart.  `LinMap.rows` is a dense view of `Fraction`s, built on
demand for JSON output and tests.  Maps between direct sums are
assembled from blocks (`block_map`) rather than entry by entry, every
reindexing of a basis is one `LinMap.permutation`, and every map of an
algebra A^(x)n -> A^(x)m that multiplies runs of adjacent factors (sheaf
merges, twisted actions, associativity) comes from `fiber_products`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate
from operator import attrgetter

from ._value import Value, _exact, _integer, _rational

_ZERO = Fraction(0)
_ONE = Fraction(1)


class VectObject(Value):
    """A vector space, recorded by its dimension (dim 0 is the zero
    object, the empty coproduct)."""

    __slots__ = ("dim",)
    _key = attrgetter("dim")

    def __init__(self, dim):
        dim = _integer("dimension", dim)
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        object.__setattr__(self, "dim", dim)

    def __repr__(self):
        return f"VectObject({self.dim})"


class LinMap(Value):
    """An exact matrix source -> target (rows x cols = target.dim x
    source.dim), stored as one tuple of nonzero (col, value) pairs per
    row, in increasing column order.  `LinMap._of(source, target, sparse)`
    wraps rows that are already sparse: sorted columns, no zeros."""

    __slots__ = ("source", "target", "sparse")
    _key = attrgetter("source.dim", "target.dim", "sparse")

    def __init__(self, source: VectObject, target: VectObject, rows):
        dense = [[_rational("rows", x, r, c) for c, x in enumerate(row)]
                 for r, row in enumerate(rows)]
        if len(dense) != target.dim or any(len(r) != source.dim for r in dense):
            raise ValueError("matrix shape must be target.dim x source.dim")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "sparse", tuple(
            tuple((c, x) for c, x in enumerate(row) if x) for row in dense
        ))

    @property
    def rows(self):
        """The dense matrix of Fractions, built on each access (JSON
        output, tests)."""
        out = []
        for row in self.sparse:
            dense = [_ZERO] * self.source.dim
            for c, x in row:
                dense[c] = Fraction(x)
            out.append(tuple(dense))
        return tuple(out)

    def is_identity(self) -> bool:
        return self.sparse == _identity_rows(self.source.dim)

    @staticmethod
    def identity(obj: VectObject) -> "LinMap":
        return LinMap._of(obj, obj, _identity_rows(obj.dim))

    @staticmethod
    def zero(source: VectObject, target: VectObject) -> "LinMap":
        return LinMap._of(source, target, ((),) * target.dim)

    @staticmethod
    def permutation(cols) -> "LinMap":
        """The reindexing with a single 1 in row r, at column cols[r]."""
        cols = tuple(cols)
        if sorted(cols) != list(range(len(cols))):
            raise ValueError(f"columns must permute range({len(cols)})")
        obj = VectObject(len(cols))
        return LinMap._of(obj, obj, tuple(((c, 1),) for c in cols))

    def __matmul__(self, other: "LinMap") -> "LinMap":
        """self o other (apply other first)."""
        if other.target != self.source:
            raise ValueError(f"maps not composable: {self!r} after {other!r}")
        if self.is_identity():
            return other
        if other.is_identity():
            return self
        inner = other.sparse
        out = []
        for row in self.sparse:
            acc = {}
            for m, coef in row:
                for c, x in inner[m]:
                    acc[c] = acc.get(c, 0) + coef * x
            out.append(_canonical(acc))
        return LinMap._of(other.source, self.target, tuple(out))

    @property
    def is_square(self):
        return self.source.dim == self.target.dim

    def is_invertible(self) -> bool:
        try:
            self.inverse()
            return True
        except ValueError:
            return False

    def inverse(self) -> "LinMap":
        """Exact inverse by Gauss-Jordan elimination on the sparse
        augmented rows [A | I].

        `holders[c]` is the set of rows with a nonzero in column c, so a
        pivot search and an elimination touch only those rows.  The pivot
        row p of column col ends as e_col on the left, so row col of the
        inverse is the right half of row p."""
        if not self.is_square:
            raise ValueError(f"only square maps can be inverted, got {self!r}")
        if self.is_identity():
            return self
        n = self.source.dim
        rows = [dict(row) | {n + i: 1} for i, row in enumerate(self.sparse)]
        holders = [set() for _ in range(2 * n)]
        for r, row in enumerate(rows):
            for c in row:
                holders[c].add(r)
        free = set(range(n))
        pivot_rows = []
        for col in range(n):
            p = min(holders[col] & free, default=None)
            if p is None:
                raise ValueError(f"map {self!r} is singular: no pivot in column {col}")
            free.discard(p)
            pivot_rows.append(p)
            pivot = rows[p]
            if pivot[col] != 1:
                inv = _exact(_ONE / pivot[col])
                pivot = rows[p] = {c: _exact(x * inv) for c, x in pivot.items()}
            for r in holders[col] - {p}:
                row, factor = rows[r], rows[r][col]
                for c, y in pivot.items():
                    x = row.get(c, 0) - factor * y
                    if x:
                        row[c] = _exact(x)
                        holders[c].add(r)
                    else:
                        del row[c]
                        holders[c].discard(r)
        return LinMap._of(self.target, self.source, tuple(
            tuple((c - n, x) for c, x in sorted(rows[p].items()) if c >= n)
            for p in pivot_rows
        ))

    def __repr__(self):
        return f"LinMap({self.target.dim}x{self.source.dim})"


@lru_cache(maxsize=None)
def _identity_rows(n):
    """The sparse rows of the n x n identity, one tuple shared per n."""
    return tuple(((i, 1),) for i in range(n))


def _canonical(acc):
    """A sparse row from a {col: value} dict: sorted, zeros dropped."""
    return tuple(sorted((c, _exact(x)) for c, x in acc.items() if x))


def tensor(a, b):
    """Tensor product of two objects or two maps (Kronecker, second
    factor fastest)."""
    if isinstance(a, VectObject) and isinstance(b, VectObject):
        return VectObject(a.dim * b.dim)
    if isinstance(a, LinMap) and isinstance(b, LinMap):
        if a.is_identity() and b.is_identity():
            return LinMap.identity(tensor(a.source, b.source))
        nb = b.source.dim
        sparse = tuple(
            tuple((j * nb + c, _exact(x * y)) for j, x in a_row for c, y in b_row)
            for a_row in a.sparse
            for b_row in b.sparse
        )
        return LinMap._of(
            tensor(a.source, b.source), tensor(a.target, b.target), sparse
        )
    raise TypeError("tensor takes two objects or two maps")


def tensor_all(items):
    """Left-to-right tensor of a nonempty list (strictly associative)."""
    items = list(items)
    if not items:
        raise ValueError("tensor of an empty list is not defined here")
    return reduce(tensor, items)


def direct_sum(items):
    """Direct sum of objects or maps; the empty sum is the zero object
    (or the unique map between zero objects)."""
    items = list(items)
    if all(isinstance(x, VectObject) for x in items):
        return VectObject(sum(x.dim for x in items))
    if all(isinstance(x, LinMap) for x in items):
        return block_map(
            [m.target for m in items],
            [m.source for m in items],
            {(i, i): m for i, m in enumerate(items)},
        )
    raise TypeError("direct_sum takes objects or maps, not a mixture")


def block_map(targets, sources, blocks) -> LinMap:
    """The map direct_sum(sources) -> direct_sum(targets) whose block
    from sources[c] to targets[r] is blocks[(r, c)]; missing blocks are
    zero."""
    targets, sources = list(targets), list(sources)
    offsets = [0, *accumulate(s.dim for s in sources)]
    by_row = [[] for _ in targets]
    for (r, c), m in sorted(blocks.items()):
        if m.source != sources[c] or m.target != targets[r]:
            raise ValueError(f"block ({r}, {c}) has the wrong shape")
        by_row[r].append((offsets[c], m.sparse))
    sparse = tuple(
        tuple((c0 + c, x) for c0, rows in parts for c, x in rows[i])
        for t, parts in zip(targets, by_row)
        for i in range(t.dim)
    )
    return LinMap._of(direct_sum(sources), direct_sum(targets), sparse)


def distribute(a: VectObject, parts) -> LinMap:
    """The reindexing a (x) (p_0 + ... + p_m) -> (a (x) p_0) + ... +
    (a (x) p_m).  With the second index fastest, the basis vector
    (i, q) of a (x) p_j sits at i * sum(p) + offset_j + q on the left
    and contiguously, block by block, on the right."""
    dims = [p.dim for p in parts]
    total = sum(dims)
    return LinMap.permutation(
        i * total + offset + q
        for offset, dim in zip(accumulate([0, *dims]), dims)
        for i in range(a.dim)
        for q in range(dim)
    )


class NonunitalAlgebra(Value):
    """A nonunital associative algebra by structure constants:
    e_i . e_j = sum_k c[k][i][j] e_k."""

    __slots__ = ("dim", "c")
    _key = attrgetter("dim", "c")

    def __init__(self, dim, c):
        dim = _integer("dimension", dim)
        c = tuple(tuple(tuple(_rational("c", x, k, i, j) for j, x in enumerate(row))
                        for i, row in enumerate(plane)) for k, plane in enumerate(c))
        if len(c) != dim or any(
            len(plane) != dim or any(len(row) != dim for row in plane)
            for plane in c
        ):
            raise ValueError("structure constants must be dim x dim x dim")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "c", c)

    @property
    def space(self):
        return VectObject(self.dim)

    def multiplication(self) -> LinMap:
        """The multiplication as a map A (x) A -> A (columns i*dim+j)."""
        d = self.dim
        rows = [
            [self.c[k][i][j] for i in range(d) for j in range(d)]
            for k in range(d)
        ]
        return LinMap(tensor(self.space, self.space), self.space, rows)

    def fiber_products(self, shapes) -> dict:
        """{shape: A^(x)sum(shape) -> A^(x)len(shape)} per distinct shape:
        the tensor of the left folds mu_k for k in shape, with mu_1 the
        identity and mu_k = mu (mu_(k-1) (x) 1)."""
        shapes = dict.fromkeys(shapes)
        ident = LinMap.identity(self.space)
        mult = self.multiplication()
        mults = [None, ident]
        for _ in range(2, max((k for s in shapes for k in s), default=1) + 1):
            mults.append(mult @ tensor(mults[-1], ident))
        return {s: tensor_all(mults[k] for k in s) for s in shapes}

    def validate(self):
        """None if associative, else the first violating basis triple.

        Associativity is the map identity mu (mu (x) 1) = mu (1 (x) mu) on
        A^(x)3, whose column i*d^2 + j*d + k is the basis triple (i, j, k);
        the triple is read off the smallest column where the sides differ."""
        p = self.fiber_products([(2,), (3,), (1, 2)])
        cols = [c for a, b in zip(p[(3,)].sparse, (p[(2,)] @ p[(1, 2)]).sparse)
                for c, _ in set(a) ^ set(b)]
        d, c = self.dim, min(cols, default=None)
        return None if c is None else (c // d**2, c // d % d, c % d)

    def require_associative(self) -> "NonunitalAlgebra":
        """self, or ValueError naming the first violating basis triple."""
        if (triple := self.validate()) is not None:
            raise ValueError(f"structure constants are not associative at basis triple {triple}")
        return self

    def __repr__(self):
        return f"NonunitalAlgebra(dim={self.dim})"

    def to_json(self):
        return {
            "dim": self.dim,
            "c": [
                [[str(x) for x in row] for row in plane] for plane in self.c
            ],
        }

    @staticmethod
    def from_json(data):
        return NonunitalAlgebra(data["dim"], data["c"])


def zero_algebra(dim=1) -> NonunitalAlgebra:
    """Every product is zero."""
    z = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    return NonunitalAlgebra(dim, z)


def rational_algebra() -> NonunitalAlgebra:
    """The rationals with their product, viewed nonunitally (dim 1)."""
    return NonunitalAlgebra(1, [[[1]]])


def _matrix_units(units) -> NonunitalAlgebra:
    """The span of the matrix units e_ab, (a, b) in units, which must be
    closed under the products e_ab e_bc = e_ac; every other product is 0."""
    d = len(units)
    index = {u: k for k, u in enumerate(units)}
    c = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i, (a, b) in enumerate(units):
        for j, (b2, c2) in enumerate(units):
            if b == b2:
                c[index[(a, c2)]][i][j] = 1
    return NonunitalAlgebra(d, c)


def nilpotent_upper3() -> NonunitalAlgebra:
    """Strictly upper triangular 3x3 matrices; basis e12, e13, e23."""
    return _matrix_units([(0, 1), (0, 2), (1, 2)])


def matrix_algebra_2x2() -> NonunitalAlgebra:
    """Full 2x2 matrix algebra, viewed nonunitally; basis e11, e12, e21,
    e22."""
    return _matrix_units([(0, 0), (0, 1), (1, 0), (1, 1)])


BUILTIN_ALGEBRAS = {
    "zero1": zero_algebra,
    "rational": rational_algebra,
    "nilpotent3": nilpotent_upper3,
    "mat2": matrix_algebra_2x2,
}
