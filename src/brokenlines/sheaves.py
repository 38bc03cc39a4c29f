"""Constructible sheaves on a chart as functors on the stratum poset, and
global sheaves as finitely presented functors on linear orders.

A global sheaf is stored by generators: one object per standard order
[n] = {0 < ... < n} up to a truncation N, and one map per adjacent merge
s_k: [n] -> [n-1].  The exchange relations among merges present every
monotone surjection, so functor application is decomposition-independent;
the relations are validated eagerly at construction.  An algebra's
merges are its `fiber_products`, as are its twisted functor's actions.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._value import Frozen
from .orders import (
    LinOrder,
    OrderMorphism,
    enumerate_convex_equivalences,
    induced_quotient_map,
)
from .rep import RepPoint, stratum_of
from .families import SampledFamily
from .vect import LinMap, NonunitalAlgebra, VectObject


class GlobalSheaf(Frozen):
    """A functor on orders of size <= N+1 by generators and relations.

    values[n] is the object at [n]; gen[(n, k)] is the map at s_k.
    """

    __slots__ = ("N", "values", "gen")

    def __init__(self, N, values, gen):
        values = tuple(values)
        if len(values) != N + 1:
            raise ValueError("need one object per size 0..N")
        gen = dict(gen)
        for n in range(1, N + 1):
            for k in range(n):
                if (n, k) not in gen:
                    raise ValueError(f"missing generator ({n},{k})")
                m = gen[(n, k)]
                if m.source != values[n] or m.target != values[n - 1]:
                    raise ValueError(f"generator ({n},{k}) has wrong shape")
        for n in range(2, N + 1):
            for i in range(n - 1):
                for j in range(i, n - 1):
                    lhs = gen[(n - 1, j)] @ gen[(n, i)]
                    rhs = gen[(n - 1, i)] @ gen[(n, j + 1)]
                    if lhs != rhs:
                        raise ValueError(
                            f"exchange relation fails at n={n}, i={i}, j={j}"
                        )
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "gen", gen)

    def value_at_size(self, size) -> VectObject:
        """The object at any linear order with `size` elements."""
        if not (1 <= size <= self.N + 1):
            raise ValueError(f"size {size} outside 1..{self.N + 1} (truncation N={self.N})")
        return self.values[size - 1]

    @staticmethod
    def from_algebra(algebra: NonunitalAlgebra, N) -> "GlobalSheaf":
        """values[n] = A^(x)(n+1); s_k multiplies slots k and k+1, the
        fiber product of shape (1, ..., 1, 2, 1, ..., 1), 2 in slot k."""
        algebra.require_associative()
        shape = {(n, k): (1,) * k + (2,) + (1,) * (n - 1 - k)
                 for n in range(1, N + 1) for k in range(n)}
        products = algebra.fiber_products(shape.values())
        values = [VectObject(algebra.dim ** (n + 1)) for n in range(N + 1)]
        gen = {g: products[s] for g, s in shape.items()}
        return GlobalSheaf(N, values, gen)

    def to_json(self):
        return {
            "N": self.N,
            "V": [v.dim for v in self.values],
            "gen": {
                f"{n},{k}": [[str(x) for x in row] for row in m.rows]
                for (n, k), m in sorted(self.gen.items())
            },
        }

    @staticmethod
    def from_json(data):
        values = [VectObject(d) for d in data["V"]]
        gen = {}
        for key, rows in data["gen"].items():
            n, k = (int(v) for v in key.split(","))
            gen[(n, k)] = LinMap(values[n], values[n - 1], rows)
        return GlobalSheaf(data["N"], values, gen)


def apply_surjection(sheaf: GlobalSheaf, f: OrderMorphism) -> LinMap:
    """The matrix of a monotone surjection, via its rightmost-first
    decomposition into adjacent merges.  Decomposition-independence is
    guaranteed by the validated exchange relations."""
    if not (f.source.is_linear_order and f.target.is_linear_order):
        raise ValueError("apply_surjection needs linear orders")
    if not f.is_surjective:
        raise ValueError("morphism must be surjective")
    if f.source.n > sheaf.N + 1:
        raise ValueError(f"source of size {f.source.n} outside truncation N={sheaf.N}")
    # positions: reduce to a standard surjection [n] -> [m]
    n = f.source.n - 1
    std = [0] * f.source.n
    for i in range(f.source.n):
        std[f.source.position(i)] = f.target.position(f.mapping[i])
    out = LinMap.identity(sheaf.value_at_size(f.source.n))
    current = std
    size = n
    while len(current) > len(set(current)):
        k = max(
            x for x in range(len(current) - 1) if current[x] == current[x + 1]
        )
        out = sheaf.gen[(size, k)] @ out
        current = current[: k + 1] + current[k + 2 :]
        size -= 1
    return out


class ConstructibleSheaf(Frozen):
    """A functor on the convex-equivalence poset of a fixed linear order:
    an object per stratum, a restriction map from finer to coarser.

    Composition is checked as R(b, c) R(a, b) = R(a, c) only where c
    covers b.  With the identity check this covers every a <= b <= d, by
    induction on the length of a chain of covers from b to d."""

    __slots__ = ("base", "value", "restriction")

    def __init__(self, base: LinOrder, value: dict, restriction: dict):
        rels = enumerate_convex_equivalences(base)
        if set(value) != set(rels):
            raise ValueError("need a value on every convex equivalence")
        for fine in rels:
            for coarse in rels:
                if fine.refines(coarse):
                    if (fine, coarse) not in restriction:
                        raise ValueError(f"missing restriction map at ({fine}, {coarse})")
                    m = restriction[(fine, coarse)]
                    if m.source != value[fine] or m.target != value[coarse]:
                        raise ValueError(f"restriction map at ({fine}, {coarse}) has wrong shape")
        for fine in rels:
            if restriction[(fine, fine)] != LinMap.identity(value[fine]):
                raise ValueError(f"identity restriction at ({fine}, {fine}) must be the identity")
        for b in rels:
            for c in b.covers():
                for a in rels:
                    if a.refines(b):
                        if restriction[(b, c)] @ restriction[(a, b)] != restriction[(a, c)]:
                            raise ValueError(f"restrictions fail to compose at ({a}, {b}, {c})")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "value", dict(value))
        object.__setattr__(self, "restriction", dict(restriction))


def global_to_constructible(sheaf: GlobalSheaf, base: LinOrder) -> ConstructibleSheaf:
    """Restrict a global sheaf to a chart: value(E) = F(I/E), restriction
    along E <= E' the induced quotient surjection."""
    if base.n > sheaf.N + 1:
        raise ValueError(f"order of size {base.n} outside truncation N={sheaf.N}")
    rels = enumerate_convex_equivalences(base)
    value = {rel: sheaf.value_at_size(len(rel.classes)) for rel in rels}
    restriction = {}
    for fine in rels:
        for coarse in rels:
            if fine.refines(coarse):
                q = induced_quotient_map(fine, coarse)
                restriction[(fine, coarse)] = apply_surjection(sheaf, q)
    return ConstructibleSheaf(base, value, restriction)


def stalk(sheaf: ConstructibleSheaf, point: RepPoint) -> VectObject:
    """The value on the stratum of the point."""
    if point.base != sheaf.base:
        raise ValueError("point must live on the sheaf's base")
    return sheaf.value[stratum_of(point)]


@dataclass(frozen=True)
class FamilyEvaluation:
    stalks: dict          # sample id -> VectObject
    edge_maps: dict       # (a, b) -> LinMap from finer to coarser side
    incomparable: tuple   # edges whose strata do not compare


def evaluate_on_family(sheaf: GlobalSheaf, family: SampledFamily) -> FamilyEvaluation:
    """Per-sample stalks of the restricted sheaf, with cospecialization
    maps along edges whose strata compare."""
    base = family.index
    if not isinstance(base, LinOrder):
        raise ValueError("family evaluation needs a linear-order index")
    restricted = global_to_constructible(sheaf, base)
    stalks = {}
    strata = {}
    for sid, point in family.samples:
        strata[sid] = stratum_of(point)
        stalks[sid] = restricted.value[strata[sid]]
    edge_maps = {}
    incomparable = []
    for a, b in family.edges:
        ea, eb = strata[a], strata[b]
        if ea.refines(eb):
            edge_maps[(a, b)] = restricted.restriction[(ea, eb)]
        elif eb.refines(ea):
            edge_maps[(a, b)] = restricted.restriction[(eb, ea)]
        else:
            incomparable.append((a, b))
    return FamilyEvaluation(stalks, edge_maps, tuple(incomparable))
