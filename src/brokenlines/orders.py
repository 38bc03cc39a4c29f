"""Finite linear preorders, linear orders, their morphisms, convex
equivalence relations, and amalgams.

A preorder on labels 0..n-1 is stored as a rank vector whose image is an
initial segment 0..k-1 of the naturals; i <= j holds iff rank(i) <= rank(j).
Ranks and mapping entries must be integers: a float or a str is rejected,
never truncated or parsed.  Enumerators build their objects directly:
preorders as rank vectors grown in lexicographic order, each prefix with a
bitmask of the ranks it uses (`grow_ranks` appends a piece per rank:
`preorder_ranks` grows the bare tuples, the CLI the report's text, once
per bitmask for a prefix's last labels, and `preorder_count` counts the
words over the same steps), monotone
surjections as cuts of the source order, amalgams as pairs of surjections
onto a common [k].  Preorders and surjections are correct by
construction, so their enumerators wrap them through the trusted
`_of(ranks)` and `_of(source, target, mapping)` inherited from
`_value.Frozen`, which check nothing; that the ranks of a preorder form
an initial segment is still checked, on its bitmask.  A convex relation
is its cut mask, and every one the package builds comes from its cuts
through `ConvexEquiv.from_cuts`.  The public constructors are the one
validating path, and the tests rebuild every enumerated object through
them as the oracle.  They check their invariants in time linear in the
number of labels: monotonicity by comparing labels of equal and of
adjacent ranks (`_monotone`), convexity by counting the labels in each
class's rank range, reflection through a label -> class position tuple.
"""

from __future__ import annotations

import bisect
import itertools
from operator import attrgetter

from ._value import Value, _integers


class LinPreorder(Value):
    """A total transitive relation on labels 0..n-1, encoded by ranks."""

    __slots__ = ("ranks",)
    _key = attrgetter("ranks")

    def __init__(self, ranks):
        ranks = _integers("ranks", ranks)
        if not ranks:
            raise ValueError("preorders are nonempty")
        if min(ranks) < 0:
            raise ValueError("ranks must be nonnegative")
        if len(set(ranks)) != max(ranks) + 1:
            raise ValueError("rank image must be an initial segment 0..k-1")
        object.__setattr__(self, "ranks", ranks)

    @property
    def n(self):
        return len(self.ranks)

    @property
    def num_classes(self):
        return max(self.ranks) + 1

    def leq(self, i, j):
        return self.ranks[i] <= self.ranks[j]

    def eq(self, i, j):
        return self.ranks[i] == self.ranks[j]

    @property
    def is_linear_order(self):
        return max(self.ranks) + 1 == len(self.ranks)

    def classes(self):
        """The =-classes, as tuples of labels, in rank order."""
        out = [[] for _ in range(self.num_classes)]
        for i, r in enumerate(self.ranks):
            out[r].append(i)
        return tuple(tuple(c) for c in out)

    def enumeration(self):
        """Canonical nondecreasing listing: by (rank, label)."""
        return tuple(sorted(range(self.n), key=lambda i: (self.ranks[i], i)))

    def comparable_pairs(self):
        """All (i, j) with i <= j, including diagonal pairs."""
        return [
            (i, j)
            for i in range(self.n)
            for j in range(self.n)
            if self.leq(i, j)
        ]

    def __repr__(self):
        return f"{type(self).__name__}({list(self.ranks)})"

    def to_json(self):
        return {"n": len(self.ranks), "rank": list(self.ranks)}

    @staticmethod
    def from_json(data):
        ranks = data["rank"]
        if len(ranks) != data["n"]:
            raise ValueError("rank vector length disagrees with n")
        p = LinPreorder(ranks)
        return LinOrder(p.ranks) if p.is_linear_order else p


class LinOrder(LinPreorder):
    """A linear preorder whose rank vector is a bijection onto 0..n-1."""

    __slots__ = ()

    def __init__(self, ranks):
        super().__init__(ranks)
        if not self.is_linear_order:
            raise ValueError("rank vector of a linear order must be injective")

    @staticmethod
    def standard(n):
        """The order 0 < 1 < ... < n-1."""
        return LinOrder(range(n))

    def position(self, i):
        return self.ranks[i]


def preorder_ranks(n) -> list:
    """The rank vectors, as tuples, of all linear preorders on labels
    0..n-1, sorted lexicographically."""
    if n < 1:
        raise ValueError("preorders are nonempty; n must be >= 1")
    words, masks = grow_ranks([()], [0], [_singleton] * n)
    # each word is a tuple of ranks >= 0 as built; that they fill 0..k-1,
    # which _next_ranks leaves room for, is checked on its bitmask
    for word, used in zip(words, masks):
        if used & (used + 1):
            raise ValueError(f"ranks {word} are no initial segment 0..k-1")
    return words


def preorder_count(n) -> int:
    """len(preorder_ranks(n)), the Fubini number, with no word built: the
    number of prefixes using each bitmask of ranks, grown label by label
    over the same `_next_ranks` steps, each step taken once per bitmask.
    Every final bitmask is checked to be an initial segment, so a faulty
    step raises here, before any word is built."""
    if n < 1:
        raise ValueError("preorders are nonempty; n must be >= 1")
    ways = {0: 1}
    for left in reversed(range(n)):
        grown = {}
        for used, count in ways.items():
            for mask in _next_ranks(used, left)[1]:
                grown[mask] = grown.get(mask, 0) + count
        ways = grown
    for used in ways:
        if used & (used + 1):
            raise ValueError(
                f"ranks using bitmask {used:#b} are no initial segment 0..k-1"
            )
    return sum(ways.values())


def grow_ranks(words, masks, pieces, rest=0):
    """Grow rank words by one label per function in `pieces`, keeping
    lexicographic order of ranks, and return the grown words and masks.

    `words` are prefixes in lexicographic order and `masks` the bitmasks
    of the ranks they use; `rest` more labels follow the grown ones.  The
    next label of a prefix takes, in increasing order, each rank v that
    `_next_ranks` allows, and the prefix grows by `piece(v)`: (v,) for
    `preorder_ranks`, the rank's line of the report text for the CLI.  The
    steps, with their pieces, are made once per bitmask and label.  What
    grows below a prefix depends only on its bitmask, so the CLI grows the
    texts of the last labels once per bitmask, from [""], and joins them
    behind each prefix that uses it."""
    left = len(pieces) + rest
    for piece in pieces:
        left -= 1
        steps = {}
        grown_words, grown_masks = [], []
        for word, used in zip(words, masks):
            step = steps.get(used)
            if step is None:
                ranks, step_masks = _next_ranks(used, left)
                step = steps[used] = list(map(piece, ranks)), step_masks
            grown_words += map(word.__add__, step[0])
            grown_masks += step[1]
        words, masks = grown_words, grown_masks
    return words, masks


def _singleton(v):
    return (v,)


def enumerate_linear_preorders(n) -> list:
    """All linear preorders on labels 0..n-1, one canonical representative
    each, sorted lexicographically by rank vector."""
    return [
        LinOrder._of(word) if max(word) == n - 1 else LinPreorder._of(word)
        for word in preorder_ranks(n)
    ]


def _next_ranks(used, left):
    """The ranks v, in increasing order, that a prefix using the ranks in
    bitmask `used` can take next, `left` labels being left after it, and
    the bitmasks used | 1 << v: the ranks still missing below the top must
    fit in those labels."""
    top = used.bit_length()
    missing = top - used.bit_count()
    ranks, masks = [], []
    for v in range(top + 1 + left - missing):
        mask = used | 1 << v
        if mask.bit_length() - mask.bit_count() <= left:
            ranks.append(v)
            masks.append(mask)
    return ranks, masks


def _monotone(src_ranks, image_ranks):
    """A pair (i, j) with src_ranks[i] <= src_ranks[j] but image_ranks[i] >
    image_ranks[j], or None if there is none.  src_ranks is the rank vector
    of a LinPreorder, so it suffices that labels of equal rank share an
    image and that images do not decrease from one rank to the next."""
    last = {r: i for i, r in enumerate(src_ranks)}
    for i, r in enumerate(src_ranks):
        j = last[r]
        if image_ranks[i] != image_ranks[j]:
            return (i, j) if image_ranks[i] > image_ranks[j] else (j, i)
    for r in range(1, len(last)):
        i, j = last[r - 1], last[r]
        if image_ranks[i] > image_ranks[j]:
            return i, j
    return None


class OrderMorphism(Value):
    """A nondecreasing, essentially surjective map of linear preorders."""

    __slots__ = ("source", "target", "mapping")
    _key = attrgetter("source.ranks", "target.ranks", "mapping")

    def __init__(self, source, target, mapping):
        mapping = _integers("mapping entries", mapping)
        if len(mapping) != source.n:
            raise ValueError("mapping length must equal source size")
        if any(not (0 <= v < target.n) for v in mapping):
            raise ValueError("mapping image must lie in the target labels")
        image = [target.ranks[v] for v in mapping]
        bad = _monotone(source.ranks, image)
        if bad is not None:
            i, j = bad
            raise ValueError(
                f"not nondecreasing: {i} <= {j} but "
                f"{mapping[i]} !<= {mapping[j]}"
            )
        if len(set(image)) != target.num_classes:
            raise ValueError("not essentially surjective")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "mapping", mapping)

    def __call__(self, i):
        return self.mapping[i]

    @property
    def is_surjective(self):
        return set(self.mapping) == set(range(self.target.n))

    @staticmethod
    def identity(base):
        return OrderMorphism(base, base, range(base.n))

    def then(self, other):
        """other o self (apply self first)."""
        if other.source != self.target:
            raise ValueError(f"morphisms not composable: {self.target!r} != {other.source!r}")
        return OrderMorphism(
            self.source, other.target, [other.mapping[v] for v in self.mapping]
        )

    def fiber(self, j):
        return tuple(i for i in range(self.source.n) if self.mapping[i] == j)

    def __repr__(self):
        return f"OrderMorphism({list(self.mapping)})"

    def to_json(self):
        return {"map": list(self.mapping)}


def quotient(p: LinPreorder):
    """The linear order on =-classes of p and the canonical projection."""
    q = LinOrder(range(p.num_classes))
    proj = OrderMorphism(p, q, p.ranks)
    return q, proj


def enumerate_surjections(source: LinOrder, target: LinOrder) -> list:
    """All monotone surjections source -> target, sorted by mapping: one
    per choice of m-1 cuts among the n-1 gaps between consecutive source
    positions, C(n-1, m-1) in all for n = |source|, m = |target|."""
    images = target.enumeration()
    mappings = sorted(
        tuple(images[bisect.bisect_right(cuts, pos)] for pos in source.ranks)
        for cuts in itertools.combinations(range(1, source.n), target.n - 1)
    )
    return [OrderMorphism._of(source, target, mapping) for mapping in mappings]


class ConvexEquiv(Value):
    """An equivalence relation on a preordered base whose classes are
    convex: i <= j <= k and i ~ k forces i ~ j ~ k.

    Labels of equal rank are related (i <= j <= i), so a relation is its
    cut mask: bit r-1 of `cuts` is set when rank r starts a class.  The
    `classes`, in rank order and each by (rank, label), and `index[i]`,
    the position of the class of label i, are computed from the cuts.
    """

    __slots__ = ("base", "cuts", "classes", "index")
    _key = attrgetter("base.ranks", "cuts")

    def __init__(self, base, classes):
        classes = [_integers("labels", c) for c in classes]
        if not all(classes) or sorted(i for c in classes for i in c) != list(range(base.n)):
            raise ValueError("classes must partition the labels")
        # A class is convex iff it holds every label whose rank lies
        # between its lowest and highest rank: count those labels.
        ranks = base.ranks
        below = list(itertools.accumulate(map(len, base.classes()), initial=0))
        cuts = 0
        for c in classes:
            c_ranks = [ranks[i] for i in c]
            lo, hi = min(c_ranks), max(c_ranks)
            if below[hi + 1] - below[lo] != len(c):
                i, k = c[c_ranks.index(lo)], c[c_ranks.index(hi)]
                j = next(
                    j
                    for j in range(base.n)
                    if lo <= ranks[j] <= hi and j not in c
                )
                raise ValueError(f"not convex at {i} <= {j} <= {k}")
            cuts |= 1 << lo >> 1  # bit lo-1: rank lo starts the class, unless lo is 0
        for name, value in zip(self._fields, (base, cuts, *_classes(base, cuts))):
            object.__setattr__(self, name, value)

    @classmethod
    def from_cuts(cls, base, cuts):
        """The relation with these cuts, unchecked: every mask below 2**(k-1) is one."""
        return cls._of(base, cuts, *_classes(base, cuts))

    @staticmethod
    def discrete(base):
        return ConvexEquiv.from_cuts(base, (1 << base.num_classes - 1) - 1)

    @staticmethod
    def indiscrete(base):
        return ConvexEquiv.from_cuts(base, 0)

    def class_index(self, i):
        if not 0 <= i < len(self.index):
            raise KeyError(i)
        return self.index[i]

    def relates(self, i, j):
        return self.class_index(i) == self.class_index(j)

    def refines(self, other):
        """self <= other in the refinement order: every cut of other cuts self."""
        if self.base != other.base:
            raise ValueError("refinement compares relations on one base")
        return not other.cuts & ~self.cuts

    def covers(self):
        """The covers of this relation under refinement: one cut cleared each."""
        bits = (1 << b for b in range(self.cuts.bit_length()) if self.cuts >> b & 1)
        return [ConvexEquiv.from_cuts(self.base, self.cuts ^ bit) for bit in bits]

    def __repr__(self):
        return f"ConvexEquiv({[list(c) for c in self.classes]})"


def _classes(base, cuts):
    """The classes and the class index of the relation on base with these cuts."""
    classes, position = [], []
    for r, rank_class in enumerate(base.classes()):
        if not r or cuts >> r - 1 & 1:
            classes.append(())
        classes[-1] += rank_class
        position.append(len(classes) - 1)
    return tuple(classes), tuple(map(position.__getitem__, base.ranks))


def enumerate_convex_equivalences(base) -> list:
    """All convex equivalence relations on base, ordered from indiscrete
    (one class) to discrete (all singletons) by cut mask, 0 to 2**(k-1)-1.

    The refinement order is `ConvexEquiv.refines`; the discrete relation is
    the bottom, the indiscrete relation the top.
    """
    return [ConvexEquiv.from_cuts(base, c) for c in range(1 << base.num_classes - 1)]


def preimage_equiv(f: OrderMorphism, rel: ConvexEquiv) -> ConvexEquiv:
    """Pull a convex relation back along f: cut where the image class changes."""
    if rel.base != f.target:
        raise ValueError("relation must live on the target of f")
    image = [0] * f.source.num_classes
    for i, r in enumerate(f.source.ranks):
        image[r] = rel.index[f.mapping[i]]
    cuts = sum(1 << r - 1 for r in range(1, len(image)) if image[r] != image[r - 1])
    return ConvexEquiv.from_cuts(f.source, cuts)


def induced_quotient_map(fine: ConvexEquiv, coarse: ConvexEquiv) -> OrderMorphism:
    """For fine <= coarse, the surjection base/fine -> base/coarse."""
    if not fine.refines(coarse):
        raise ValueError("first relation must refine the second")
    qf = LinOrder.standard(len(fine.classes))
    qc = LinOrder.standard(len(coarse.classes))
    mapping = [coarse.class_index(c[0]) for c in fine.classes]
    return OrderMorphism(qf, qc, mapping)


def concatenate_orders(left: LinOrder, right: LinOrder) -> LinOrder:
    """Disjoint union with every element of left below every element of
    right; left keeps labels 0..|I|-1, right is shifted by |I|."""
    ranks = [left.ranks[i] for i in range(left.n)]
    ranks += [right.ranks[j] + left.n for j in range(right.n)]
    return LinOrder(ranks)


class Amalgam(Value):
    """A linear preorder on I ⊔ J restricting nondecreasingly and
    essentially surjectively to both factors.

    Elements of I keep labels 0..|I|-1; elements of J get |I|..|I|+|J|-1.
    """

    __slots__ = ("left", "right", "preorder")
    _key = attrgetter("left.ranks", "right.ranks", "preorder.ranks")

    def __init__(self, left: LinOrder, right: LinOrder, preorder: LinPreorder):
        if preorder.n != left.n + right.n:
            raise ValueError("amalgam must live on the disjoint union")
        for base, offset in ((left, 0), (right, left.n)):
            image = preorder.ranks[offset : offset + base.n]
            if _monotone(base.ranks, image) is not None:
                raise ValueError("inclusion is not nondecreasing")
            if len(set(image)) != preorder.num_classes:
                raise ValueError("inclusion is not essentially surjective")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "preorder", preorder)

    @property
    def n(self):
        return self.preorder.n

    def _check_same_orders(self, other):
        """Raise unless other is an amalgam of the same two orders; `is`
        first, as the amalgams of one enumeration share their orders."""
        if not (self.left is other.left or self.left == other.left) or not (
            self.right is other.right or self.right == other.right
        ):
            raise ValueError(
                f"{self!r} of ({self.left!r}, {self.right!r}) and {other!r} of "
                f"({other.left!r}, {other.right!r}) are amalgams of different orders"
            )

    def leq_amalgam(self, other) -> bool:
        """self <= other iff the identity on I ⊔ J is nondecreasing from
        self.preorder to other.preorder."""
        self._check_same_orders(other)
        return _monotone(self.preorder.ranks, other.preorder.ranks) is None

    def join(self, other) -> "Amalgam":
        """Least upper bound: the preorder whose down-sets are the sets
        that are down-sets of both.  Walk self's classes in rank order,
        keeping `top`, the largest rank in other seen so far; a class of
        the join ends after a prefix exactly when the prefix holds as many
        labels as have rank at most `top` in other."""
        self._check_same_orders(other)
        below = list(itertools.accumulate(map(len, other.preorder.classes())))
        other_ranks = other.preorder.ranks
        ranks = [0] * self.n
        k = top = size = 0
        for cls in self.preorder.classes():
            for i in cls:
                ranks[i] = k
            top = max(top, *(other_ranks[i] for i in cls))
            size += len(cls)
            if size == below[top]:
                k += 1
        return Amalgam(self.left, self.right, LinPreorder(ranks))

    def __repr__(self):
        return f"Amalgam({list(self.preorder.ranks)})"


def enumerate_amalgams(left: LinOrder, right: LinOrder) -> list:
    """All amalgams of (left, right), sorted by rank vector.

    An amalgam with k classes is a pair of monotone surjections left -> [k]
    and right -> [k], its rank vector the two mappings side by side; there
    are C(p+q-2, p-1) of them.
    """
    ranks = []
    for k in range(1, min(left.n, right.n) + 1):
        classes = LinOrder.standard(k)
        for s in enumerate_surjections(left, classes):
            for t in enumerate_surjections(right, classes):
                ranks.append(s.mapping + t.mapping)
    ranks.sort()
    return [Amalgam(left, right, LinPreorder(r)) for r in ranks]
