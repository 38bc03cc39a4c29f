"""The twisted arrow category of linear orders and monotone surjections,
its concatenation product, truncated functors into exact vector spaces,
Day convolution, and the factorizable-sheaf / nonunital-algebra roundtrip.

Objects are pairs (I, ~) of a standard linear order with a convex
equivalence relation; a morphism is a monotone surjection that reflects
the target relation into the source relation.  Functors are truncated at
a size N; truncation is exact degree by degree.

`tw_enumerate` builds each morphism once, from its target, and wraps it
unchecked (`TwMorphism.__init__` is the validating path and the tests'
oracle); the functor axioms, naturality and intertwining are checked on
grade-one generators.  An algebra's functor acts on f by a map that
depends only on the fiber sizes of f: one `fiber_products` map per shape.
`functor_to_algebra` checks size-3 data through the recovered algebra.
A Day convolution builds each action on its first read, so `action` may
be built on demand.  `tw_enumerate`, `tw_generators`, `tw_star`,
`tw_restrict` and the fiber shapes are cached for the life of the process.
`roundtrip` builds an algebra's functor F and unfolds it once, and checks
eta against F itself: the functor rebuilt from an equal algebra is F.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from itertools import combinations
from operator import attrgetter

from ._value import Frozen, Value
from .orders import (
    ConvexEquiv,
    LinOrder,
    OrderMorphism,
    enumerate_convex_equivalences,
    enumerate_surjections,
)
from .vect import (
    LinMap,
    NonunitalAlgebra,
    VectObject,
    block_map,
    direct_sum,
    distribute,
    tensor,
)


class TwObject(Value):
    """A pair (standard linear order, convex equivalence relation)."""

    __slots__ = ("order", "rel")
    _key = attrgetter("order.ranks", "rel.classes")

    def __init__(self, order: LinOrder, rel: ConvexEquiv):
        if order.ranks != tuple(range(order.n)):
            raise ValueError("twisted-arrow objects use standard orders")
        if rel.base != order:
            raise ValueError("relation must live on the given order")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "rel", rel)

    @property
    def n(self):
        return self.order.n

    @property
    def grade(self):
        """n - |classes|, the stratum dimension; non-identity maps lower it."""
        return self.n - len(self.rel.classes)

    def __repr__(self):
        return f"TwObject(n={self.n}, classes={[list(c) for c in self.rel.classes]})"


def sharp(n) -> TwObject:
    """The order 0 < ... < n-1 with the indiscrete relation."""
    order = LinOrder.standard(n)
    return TwObject(order, ConvexEquiv.indiscrete(order))


def flat(n) -> TwObject:
    """The order 0 < ... < n-1 with the discrete relation."""
    order = LinOrder.standard(n)
    return TwObject(order, ConvexEquiv.discrete(order))


def point() -> TwObject:
    return sharp(1)


class TwMorphism(Value):
    """A monotone surjection reflecting the target relation: if
    f(i) ~ f(i') in the target then i ~ i' in the source."""

    __slots__ = ("source", "target", "f")
    _key = attrgetter("source", "target", "f.mapping")

    def __init__(self, source: TwObject, target: TwObject, mapping):
        f = OrderMorphism(source.order, target.order, mapping)
        if not f.is_surjective:
            raise ValueError("underlying map must be surjective")
        # Each target class must pull back into a single source class.
        first = {}
        for i, v in enumerate(f.mapping):
            j = first.setdefault(target.rel.index[v], i)
            if source.rel.index[i] != source.rel.index[j]:
                raise ValueError(f"relation not reflected at ({j},{i})")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "f", f)

    @staticmethod
    def _of(source, target, f) -> "TwMorphism":
        """Wrap an OrderMorphism f of the orders of source and target
        already known to be surjective and to reflect target's relation."""
        obj = object.__new__(TwMorphism)
        object.__setattr__(obj, "source", source)
        object.__setattr__(obj, "target", target)
        object.__setattr__(obj, "f", f)
        return obj

    @property
    def mapping(self):
        return self.f.mapping

    def __call__(self, i):
        return self.f.mapping[i]

    @staticmethod
    def identity(x: TwObject):
        return TwMorphism(x, x, range(x.n))

    def then(self, other: "TwMorphism") -> "TwMorphism":
        if other.source != self.target:
            raise ValueError(f"morphisms not composable: {self.target!r} != {other.source!r}")
        return TwMorphism(
            self.source, other.target, [other(v) for v in self.mapping]
        )

    def __repr__(self):
        return f"TwMorphism({list(self.mapping)})"


@lru_cache(maxsize=None)
def tw_star(x: TwObject, y: TwObject) -> TwObject:
    """Concatenation: orders concatenate, relations union with no cross
    identifications."""
    order = LinOrder.standard(x.n + y.n)
    classes = [tuple(c) for c in x.rel.classes]
    classes += [tuple(i + x.n for i in c) for c in y.rel.classes]
    return TwObject(order, ConvexEquiv(order, classes))


def star_morphism(f: TwMorphism, g: TwMorphism) -> TwMorphism:
    mapping = list(f.mapping) + [v + f.target.n for v in g.mapping]
    return TwMorphism(tw_star(f.source, g.source), tw_star(f.target, g.target), mapping)


@lru_cache(maxsize=None)
def tw_enumerate(N):
    """All objects of size <= N and all morphisms between them (on
    canonical labels), the morphisms sorted by (source, target, mapping).

    Each morphism is built once, from its target y and surjection f: f
    reflects y's relation exactly when the source relation coarsens its
    pullback, cut where f(k-1) and f(k) lie in different classes of y.
    So f has one source per subset of those cuts.  Every morphism is
    correct by construction and wrapped through `TwMorphism._of`."""
    if N < 1:
        raise ValueError("truncation must be at least 1")
    orders = [LinOrder.standard(n) for n in range(1, N + 1)]
    objects = [
        TwObject(order, rel)
        for order in orders
        for rel in enumerate_convex_equivalences(order)
    ]
    by_cuts = {(x.n, tuple(valid_cuts(x))): i for i, x in enumerate(objects)}
    found = []
    for j, y in enumerate(objects):
        rel = y.rel.index
        for a in orders[y.n - 1 :]:
            for f in enumerate_surjections(a, y.order):
                m = f.mapping
                cuts = [k for k in range(1, a.n) if rel[m[k - 1]] != rel[m[k]]]
                for r in range(len(cuts) + 1):
                    for starts in combinations(cuts, r):
                        found.append((by_cuts[(a.n, starts)], j, m, f))
    found.sort(key=lambda entry: entry[:3])
    morphisms = (TwMorphism._of(objects[i], objects[j], f) for i, j, _, f in found)
    return tuple(objects), tuple(morphisms)


def tw_pairs(N):
    """The pairs (x, y) of objects with |x| + |y| <= N, where lax maps live."""
    objects, _ = tw_enumerate(N)
    return [(x, y) for x in objects for y in objects if x.n + y.n <= N]


@lru_cache(maxsize=None)
def tw_generators(N):
    """The morphisms of size <= N lowering the grade by one: merges of two
    neighbours in one class, and identity maps splitting one class.  Every
    other non-identity morphism factors through its image relation into
    merges, then splits, one at a time."""
    _, morphisms = tw_enumerate(N)
    return tuple(f for f in morphisms if f.source.grade == f.target.grade + 1)


@lru_cache(maxsize=None)
def _shapes(N):
    """{f: its fiber sizes} for the morphisms of `tw_enumerate(N)`, in order."""
    return {f: tuple(map(f.mapping.count, range(f.target.n))) for f in tw_enumerate(N)[1]}


def comparison_morphism(x: TwObject) -> TwMorphism:
    """The canonical map sharp(n) -> x over the identity."""
    return TwMorphism(sharp(x.n), x, range(x.n))


@lru_cache(maxsize=None)
def tw_restrict(x: TwObject, lo, hi):
    """The sub-object on positions lo..hi-1, relabeled to 0..hi-lo-1."""
    order = LinOrder.standard(hi - lo)
    parts = (tuple(i - lo for i in c if lo <= i < hi) for c in x.rel.classes)
    return TwObject(order, ConvexEquiv(order, [p for p in parts if p]))


def valid_cuts(x: TwObject):
    """Positions k where I splits as (first k) ⊔ (rest) with both parts
    nonempty and no relation class straddling the cut: the starts of the
    classes after the first, as the classes are convex and in order."""
    return [c[0] for c in x.rel.classes[1:]]


class TwFunctor(Frozen):
    """A truncated functor on the twisted arrow category, with optional
    lax monoidal structure maps; the constructor checks the axioms.

    value: TwObject -> VectObject for all objects of size <= N;
    action: TwMorphism -> LinMap for all enumerated morphisms, built on
    demand for a Day convolution (an `_Actions`, kept as given);
    lax: (x, y) -> LinMap value(x) (x) value(y) -> value(x * y) for
    |x| + |y| <= N, or None for a bare functor.
    """

    __slots__ = ("N", "value", "action", "lax")

    def __init__(self, N, value, action, lax=None):
        problem = self._fill(N, value, action, lax).validate()
        if problem is not None:
            raise ValueError(problem)

    def _fill(self, N, value, action, lax):
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "value", dict(value))
        object.__setattr__(self, "action",
                           action if isinstance(action, _Actions) else dict(action))
        object.__setattr__(self, "lax", None if lax is None else dict(lax))
        return self

    @staticmethod
    def _of(N, value, action, lax=None) -> "TwFunctor":
        """Wrap functor data already known to satisfy the axioms."""
        return object.__new__(TwFunctor)._fill(N, value, action, lax)

    def validate(self):
        """None, or a message naming the first failed functor axiom.

        F(f then g) = F(g) F(f) is checked for generators g only; with the
        identity check, induction on the number of generators in the second
        map gives it for every composable pair."""
        objects, morphisms = tw_enumerate(self.N)
        for x in objects:
            if x not in self.value:
                return f"missing value at {x}"
            if TwMorphism.identity(x) not in self.action:
                return f"missing identity action at {x}"
            if self.action[TwMorphism.identity(x)] != LinMap.identity(self.value[x]):
                return f"identity acts non-identically at {x}"
        for f in morphisms:
            if f not in self.action:
                return f"missing action at {f}"
            m = self.action[f]
            if m.source != self.value[f.source] or m.target != self.value[f.target]:
                return f"action at {f} has wrong shape"
        out_of = {x: [] for x in objects}
        for g in tw_generators(self.N):
            out_of[g.source].append(g)
        for f in morphisms:
            for g in out_of[f.target]:
                if self.action[f.then(g)] != self.action[g] @ self.action[f]:
                    return f"functoriality fails at {g} o {f}"
        if self.lax is not None:
            return self._validate_lax(objects)
        return None

    def _validate_lax(self, objects):
        for x, y in tw_pairs(self.N):
            if (x, y) not in self.lax:
                return f"missing lax map at ({x}, {y})"
            u = self.lax[(x, y)]
            want_src = tensor(self.value[x], self.value[y])
            if u.source != want_src or u.target != self.value[tw_star(x, y)]:
                return f"lax map at ({x}, {y}) has wrong shape"
        # naturality on (g, id) and (id, g) for generators g: the square
        # at any (f, h) pastes from these, as star_morphism respects composition
        for g in tw_generators(self.N):
            for y in objects:
                if g.source.n + y.n > self.N:
                    continue
                ident = TwMorphism.identity(y)
                for f, h in ((g, ident), (ident, g)):
                    lhs = self.lax[(f.target, h.target)] @ tensor(
                        self.action[f], self.action[h]
                    )
                    rhs = self.action[star_morphism(f, h)] @ self.lax[
                        (f.source, h.source)
                    ]
                    if lhs != rhs:
                        return f"lax naturality fails at ({f}, {h})"
        # associativity coherence of the structure maps
        for x, y in tw_pairs(self.N):
            for z in objects:
                if x.n + y.n + z.n > self.N:
                    continue
                left = self.lax[(tw_star(x, y), z)] @ tensor(
                    self.lax[(x, y)], LinMap.identity(self.value[z])
                )
                right = self.lax[(x, tw_star(y, z))] @ tensor(
                    LinMap.identity(self.value[x]), self.lax[(y, z)]
                )
                if left != right:
                    return f"lax associativity fails at ({x}, {y}, {z})"
        return None

    def comparison(self, x: TwObject) -> LinMap:
        """The Fun_0 comparison map F(sharp) -> F(x)."""
        return self.action[comparison_morphism(x)]

    def is_monoidal(self) -> bool:
        if self.lax is None:
            return False
        return all(u.is_invertible() for u in self.lax.values())


class _Actions(Mapping):
    """A read-only action on `morphisms`, in their order, that builds f's
    map by `build(f)` on its first read and keeps it; `in`, `len` and
    iteration build nothing, and any other key raises KeyError."""

    def __init__(self, morphisms, build):
        self._built, self._build = dict.fromkeys(morphisms), build

    def __getitem__(self, f):
        if self._built[f] is None:
            self._built[f] = self._build(f)
        return self._built[f]

    def __contains__(self, f):
        return f in self._built

    def __iter__(self):
        return iter(self._built)

    def __len__(self):
        return len(self._built)


def algebra_to_functor(algebra: NonunitalAlgebra, N) -> TwFunctor:
    """The strictly monoidal functor of an algebra: value A^(x)|I| on
    every relation, action multiplying each fiber in order, identity lax
    maps.  The action of f depends only on its fiber sizes, so each shape
    gets one map, shared by every morphism of that shape."""
    algebra.require_associative()
    objects, _ = tw_enumerate(N)
    value = {x: VectObject(algebra.dim**x.n) for x in objects}
    shapes = _shapes(N)
    by_shape = algebra.fiber_products(shapes.values())
    action = {f: by_shape[s] for f, s in shapes.items()}
    lax = {(x, y): LinMap.identity(value[tw_star(x, y)]) for x, y in tw_pairs(N)}
    return TwFunctor._of(N, value, action, lax)


def _unfolds(functor: TwFunctor, top) -> dict:
    """{n: F(pt)^(x)n -> F(flat n) -> F(sharp n)} for n = 1..top: F's lax
    maps fold, then the inverse of the Fun_0 comparison map, taken once."""
    pt = point()
    ident = fold = LinMap.identity(functor.value[pt])
    unfolds = {}
    for n in range(1, top + 1):
        if n > 1:
            fold = functor.lax[(flat(n - 1), pt)] @ tensor(fold, ident)
        try:
            inverse = functor.comparison(flat(n)).inverse()
        except ValueError:
            raise ValueError(f"Fun_0 comparison map at {flat(n)} is not invertible") from None
        unfolds[n] = inverse @ fold
    return unfolds


def functor_to_algebra(functor: TwFunctor) -> NonunitalAlgebra:
    """Recover the algebra of a monoidal Fun_0 functor from its value on
    the one-point object, certifying associativity via size-3 data."""
    return _recover(functor, 3)[0]


def _recover(functor: TwFunctor, top):
    """(functor_to_algebra(F), `_unfolds(F, top)`), for top >= 3."""
    if functor.N < 3:
        raise ValueError("truncation must be at least 3")
    if functor.lax is None or not functor.is_monoidal():
        raise ValueError("functor must be monoidal (invertible lax maps)")
    unfolds = _unfolds(functor, top)  # then merge all n points: F(sharp n) -> F(pt)
    mult, mu3 = (functor.action[TwMorphism(sharp(n), point(), [0] * n)] @ unfolds[n]
                 for n in (2, 3))
    d, rows = mult.target.dim, mult.rows
    c = [[rows[k][i * d : (i + 1) * d] for i in range(d)] for k in range(d)]
    algebra = NonunitalAlgebra(d, c)
    if algebra.validate() is not None or algebra.fiber_products([(3,)])[(3,)] != mu3:
        raise ValueError("functor data is not associative")
    return algebra, unfolds


def roundtrip(algebra: NonunitalAlgebra, N):
    """(F, functor_to_algebra(F), eta) for F = algebra_to_functor(algebra, N),
    with eta = roundtrip_natural_iso(F), or None if the algebra changed.
    F is built and unfolded once, and eta is checked against F itself: the
    functor rebuilt from an equal algebra is F, as algebra_to_functor is
    deterministic."""
    functor = algebra_to_functor(algebra, N)
    recovered, unfolds = _recover(functor, N)
    eta = _natural_iso(functor, functor, unfolds) if recovered == algebra else None
    return functor, recovered, eta


def roundtrip_natural_iso(functor: TwFunctor) -> dict:
    """Explicit natural isomorphism algebra_to_functor(functor_to_algebra(F)) -> F,
    {TwObject: invertible LinMap}, checked as `_natural_iso` says."""
    algebra, unfolds = _recover(functor, functor.N)
    return _natural_iso(functor, algebra_to_functor(algebra, functor.N), unfolds)


def _natural_iso(functor: TwFunctor, rebuilt: TwFunctor, unfolds) -> dict:
    """eta: rebuilt -> F, eta_x = F(c_x) unfolds[|x|]; raises if any
    naturality square or monoidal compatibility fails.

    Naturality is checked on `tw_generators(N)` only.  This presumes that
    F is a functor (validated, or built by `algebra_to_functor` or
    `day_convolution`), as the rebuilt side is: squares for f and g then
    paste to one for f then g, and every non-identity morphism is a
    composite of generators, the induction `TwFunctor.validate` uses.

    Monoidal compatibility is checked on the pairs (sharp a, sharp b) with
    a + b <= N only.  This presumes that F's lax maps are natural (F is
    validated, or built by `algebra_to_functor`), as G's are, where G is
    the rebuilt functor.  Let c_x: sharp(|x|) -> x be the comparison
    morphism; every fiber of c_x is one point, so G(c_x) is the identity.
    Naturality of G.lax, of eta on c_x * c_y, the square at
    (sharp a, sharp b), naturality of F.lax and of eta on c_x and c_y give

        eta_{x*y} G.lax(x,y) = eta_{x*y} G(c_x * c_y) G.lax(sharp a, sharp b)
                             = F.lax(x,y) (F(c_x) eta_{sharp a} (x) F(c_y) eta_{sharp b})
                             = F.lax(x,y) (eta_x (x) eta_y),

    the square at (x, y).
    """
    N = functor.N
    eta = {}
    for x in tw_enumerate(N)[0]:
        eta[x] = functor.comparison(x) @ unfolds[x.n]
        if not eta[x].is_invertible():
            raise ValueError(f"component at {x} is not invertible")
    for f in tw_generators(N):
        if eta[f.target] @ rebuilt.action[f] != functor.action[f] @ eta[f.source]:
            raise ValueError(f"naturality fails at {f}")
    for x, y in ((sharp(a), sharp(b)) for a in range(1, N) for b in range(1, N - a + 1)):
        lhs = eta[tw_star(x, y)] @ rebuilt.lax[(x, y)]
        rhs = functor.lax[(x, y)] @ tensor(eta[x], eta[y])
        if lhs != rhs:
            raise ValueError(f"monoidal compatibility fails at ({x},{y})")
    return eta


def day_convolution(left: TwFunctor, right: TwFunctor, N) -> TwFunctor:
    """Day convolution truncated at N, by the decomposition formula: the
    value on (I, ~) is the direct sum over downward-closed ~-invariant
    proper cuts of left(first part) (x) right(second part).  Both parts
    are proper, so N needs factors truncated at N - 1 or more.  Each
    action is built on its first read, so checks on generators build few."""
    return _day_convolution(left, right, N)[0]


def _day_convolution(left, right, N):
    """day_convolution(left, right, N) and the `_summands` of each of its
    objects, which its actions and `day_square` read."""
    if N > min(left.N, right.N) + 1:
        raise ValueError(f"Day convolution at truncation {N} needs factors truncated "
                         f"at {N - 1} or more, got {left.N} and {right.N}")
    objects, morphisms = tw_enumerate(N)
    summands = {x: _summands(left, right, x) for x in objects}
    value = {x: direct_sum(parts.values()) for x, parts in summands.items()}
    action = _Actions(morphisms, lambda f: _day_action(left, right, f, summands))
    return TwFunctor._of(N, value, action), summands


def _summands(left, right, x: TwObject) -> dict:
    """{cut k: left(x[:k]) (x) right(x[k:])} over the valid cuts of x, in
    the order they are summed in (left ⊛ right)(x)."""
    return {
        k: tensor(left.value[tw_restrict(x, 0, k)], right.value[tw_restrict(x, k, x.n)])
        for k in valid_cuts(x)
    }


def _day_action(left, right, f: TwMorphism, summands) -> LinMap:
    """The summand at cut k of the source goes to the summand at the image
    cut f(k-1)+1 by left(f on the first part) (x) right(f on the rest).
    The image cut is injective in k, so each row block holds one block.
    `summands` holds `_summands(left, right, x)` for every object x."""
    x, y = f.source, f.target
    cols, targets = summands[x], summands[y]
    rows = list(targets)
    blocks = {}
    for ci, k in enumerate(cols):
        kk = f(k - 1) + 1
        f0 = TwMorphism(tw_restrict(x, 0, k), tw_restrict(y, 0, kk), f.mapping[:k])
        rest = [v - kk for v in f.mapping[k:]]
        f1 = TwMorphism(tw_restrict(x, k, x.n), tw_restrict(y, kk, y.n), rest)
        blocks[(rows.index(kk), ci)] = tensor(left.action[f0], right.action[f1])
    return block_map(targets.values(), cols.values(), blocks)


def day_square(functor: TwFunctor, N) -> TwFunctor:
    """F ⊛ F with its canonical lax structure, folded from F's own
    structure maps across the cut."""
    if functor.lax is None:
        raise ValueError("day_square needs a lax functor")
    bare, sums = _day_convolution(functor, functor, N)
    lax = {(x, y): _day_square_lax(functor, bare, sums, x, y)
           for x, y in tw_pairs(bare.N)}
    return TwFunctor._of(bare.N, bare.value, bare.action, lax)


def _day_square_lax(F, bare, summands, x, y) -> LinMap:
    """(F⊛F)(x) (x) (F⊛F)(y) -> (F⊛F)(x*y), sending the summand pair
    (x0|x1), (y0|y1) to the summand (x0 | x1*y) via F's lax maps.

    The source is a sum over the x-summands X_i of X_i (x) (F⊛F)(y); each
    of those is distributed over the y-summands Y_j, and the pieces
    X_i (x) Y_j are then sent to the target by blocks.  `summands` holds
    `_summands(F, F, x)` for every object x."""
    xy = tw_star(x, y)
    x_sums, y_sums = summands[x], summands[y]
    src = tensor(bare.value[x], bare.value[y])
    if not x_sums or not y_sums:
        return LinMap.zero(src, bare.value[xy])
    targets = summands[xy]
    rows = list(targets)
    sources = []
    blocks = {}
    for k, x_sum in x_sums.items():
        x0, x1 = tw_restrict(x, 0, k), tw_restrict(x, k, x.n)
        for l, y_sum in y_sums.items():
            y0, y1 = tw_restrict(y, 0, l), tw_restrict(y, l, y.n)
            # F(x1) (x) F(y0) (x) F(y1) -> F(x1 * y) by folding F's lax maps
            fold = F.lax[(tw_star(x1, y0), y1)] @ tensor(
                F.lax[(x1, y0)], LinMap.identity(F.value[y1])
            )
            blocks[(rows.index(k), len(sources))] = tensor(
                LinMap.identity(F.value[x0]), fold
            )
            sources.append(tensor(x_sum, y_sum))
    spread = direct_sum(distribute(s, y_sums.values()) for s in x_sums.values())
    return block_map(targets.values(), sources, blocks) @ spread


def day_assoc_check(f1: TwFunctor, f2: TwFunctor, f3: TwFunctor, N) -> dict:
    """Compare ((f1⊛f2)⊛f3) and (f1⊛(f2⊛f3)) through the canonical
    summand reindexing; the permutation must intertwine all actions.

    Both sides are functors, built by `day_convolution`, so intertwining
    is checked on `tw_generators(N)` only and pastes along composites, by
    the induction `TwFunctor.validate` uses; `morphisms_checked` counts
    every morphism, each covered through its generators."""
    lhs = day_convolution(day_convolution(f1, f2, N), f3, N)
    rhs = day_convolution(f1, day_convolution(f2, f3, N), N)
    objects, morphisms = tw_enumerate(N)

    perms = {}
    mismatches = []
    for x in objects:
        perm = _assoc_permutation(f1, f2, f3, x)
        if perm.source != lhs.value[x] or perm.target != rhs.value[x]:
            mismatches.append(("shape", repr(x)))
            continue
        perms[x] = perm
    for f in tw_generators(N):
        if f.source not in perms or f.target not in perms:
            continue
        if perms[f.target] @ lhs.action[f] != rhs.action[f] @ perms[f.source]:
            mismatches.append(("intertwine", repr(f)))
    return {
        "objects_checked": len(perms),
        "morphisms_checked": len(morphisms),
        "mismatches": mismatches,
        "ok": not mismatches,
    }


def _assoc_permutation(f1, f2, f3, x: TwObject) -> LinMap:
    """The canonical reindexing ((f1⊛f2)⊛f3)(x) -> (f1⊛(f2⊛f3))(x).

    Both sides decompose over double cuts l < k of x into summands
    T(l, k) = f1[0:l] (x) f2[l:k] (x) f3[k:n].  On the left the inner sum
    sits in the left factor, so each T(l, k) is one contiguous block, in
    (k, l) order.  On the right it sits in the right factor: for each l,
    row i of f1[0:l] runs through the f2 (x) f3 parts of every T(l, k) in
    turn.  Row r has its 1 where the r-th right basis vector sits on the left.
    """
    cuts = valid_cuts(x)
    d1 = {l: f1.value[tw_restrict(x, 0, l)].dim for l in cuts}
    blocks = {l: [] for l in cuts}  # l -> (left offset, dim of f2 (x) f3) per k
    offset = 0
    for j, k in enumerate(cuts):
        d3 = f3.value[tw_restrict(x, k, x.n)].dim
        for l in cuts[:j]:
            size = f2.value[tw_restrict(x, l, k)].dim * d3
            blocks[l].append((offset, size))
            offset += d1[l] * size
    cols = []
    for l in cuts:
        for i in range(d1[l]):
            for start, size in blocks[l]:
                cols.extend(range(start + i * size, start + (i + 1) * size))
    return LinMap.permutation(cols)


def factorizable_check(functor: TwFunctor) -> bool:
    """True iff every structure map between discrete objects within the
    truncation is invertible; by the reduction to the discrete case this
    decides factorizability for Fun_0 functors."""
    if functor.lax is None:
        raise ValueError("factorizability concerns lax functors")
    for n in range(1, functor.N):
        for m in range(1, functor.N - n + 1):
            if not functor.lax[(flat(n), flat(m))].is_invertible():
                return False
    return True
