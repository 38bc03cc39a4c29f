"""The acceptance suite: one callable per criterion, shared by the test
module and the `accept` CLI subcommand.

Every criterion returns {"name", "ok", "detail", "seconds"}; the combinatorial
criteria are exact, the Morse criterion carries its tolerances.
"""

from __future__ import annotations

import itertools
import random
import time
from .extreal import INF, ExtReal
from .families import build_family, extract_alpha, reconstruction_iso
from .lines import fiber_over, translation_distance
from .configurations import verify_join_identity
from .orders import (
    LinOrder,
    enumerate_convex_equivalences,
    enumerate_surjections,
    preimage_equiv,
)
from .rep import RepPoint, stratum_of, stratum_samples
from .sheaves import GlobalSheaf, evaluate_on_family, global_to_constructible
from .twisted import (
    algebra_to_functor,
    day_assoc_check,
    day_convolution,
    flat,
    point,
    roundtrip,
    sharp,
)
from .vect import BUILTIN_ALGEBRAS, nilpotent_upper3, rational_algebra, zero_algebra


def _run(name, body):
    start = time.perf_counter()
    try:
        ok, detail = body()
    except Exception as exc:  # a crash is a failure, not an abort
        ok, detail = False, f"exception: {exc!r}"
    return {
        "name": name,
        "ok": bool(ok),
        "detail": detail,
        "seconds": round(time.perf_counter() - start, 3),
    }


def _roundtrips(names, N, assoc=False):
    """For each named builtin algebra: algebra -> functor -> algebra is the
    identity on structure constants, the reverse roundtrip has an exact
    natural isomorphism at truncation N and, with `assoc`, F⊛F⊛F reindexes."""

    def body():
        for name in names:
            algebra = BUILTIN_ALGEBRAS[name]()
            functor, _, eta = roundtrip(algebra, N)  # raises on a failed check
            if eta is None:
                return False, f"{name}: structure constants changed"
            if assoc:
                mismatches = day_assoc_check(functor, functor, functor, N)["mismatches"]
                if mismatches:
                    return False, f"{name}: associativity reindexing: {mismatches[:3]}"
        checks = "roundtrips and Day associativity" if assoc else "roundtrips"
        return True, f"exact {checks} for {', '.join(names)}"

    return body


def criterion_mainc_roundtrip():
    """Criterion 1: the roundtrips of `_roundtrips` at truncation 4, for
    the three reference algebras."""
    return _run("factorization roundtrip",
                _roundtrips(["zero1", "nilpotent3", "mat2"], 4))


def criterion_pullback_squares():
    """Criterion 2: pullback squares of global_to_constructible commute
    exactly for all monotone surjections between orders of sizes <= 4 and
    all convex relations on the target; exchange relations validate."""

    def body():
        sheaves = [
            GlobalSheaf.from_algebra(zero_algebra(), 3),
            GlobalSheaf.from_algebra(nilpotent_upper3(), 3),
        ]
        squares = 0
        for sheaf in sheaves:
            charts = {
                n: global_to_constructible(sheaf, LinOrder.standard(n))
                for n in range(1, 5)
            }
            for n_src in range(1, 5):
                for n_tgt in range(1, n_src + 1):
                    src = LinOrder.standard(n_src)
                    tgt = LinOrder.standard(n_tgt)
                    g_src, g_tgt = charts[n_src], charts[n_tgt]
                    rels = enumerate_convex_equivalences(tgt)
                    for f in enumerate_surjections(src, tgt):
                        for e in rels:
                            for e2 in rels:
                                if not e.refines(e2):
                                    continue
                                eb = preimage_equiv(f, e)
                                eb2 = preimage_equiv(f, e2)
                                if (
                                    g_src.restriction[(eb, eb2)]
                                    != g_tgt.restriction[(e, e2)]
                                ):
                                    return False, f"square fails at {f}, {e}"
                                squares += 1
        return True, f"{squares} pullback squares commute exactly"

    return _run("sheaf pullback squares", body)


def criterion_fiber_product_covering():
    """Criterion 3: join identity, covering, and least-upper-bound-ness
    over Amal(I, J) for |I|, |J| <= 3 with grid-sampled configurations."""

    def body():
        worst = None
        for nl, nr in itertools.product((1, 2, 3), repeat=2):
            report = verify_join_identity(
                LinOrder.standard(nl), LinOrder.standard(nr)
            )
            if report["violations"]:
                return False, f"({nl},{nr}): {report['violations'][:3]}"
            worst = report
        return True, (
            f"exhaustive up to 3x3; last report: {worst['amalgams']} amalgams, "
            f"{worst['configs_checked']} configurations, zero violations"
        )

    return _run("fiber-product covering", body)


def criterion_classification():
    """Criterion 4: component count equals finite-distance class count and
    all distance cocycle identities hold, over 200 grid-sampled points."""

    def body():
        rng = random.Random(20240229)
        count = 0
        while count < 200:
            n = rng.randint(1, 5)
            base = LinOrder.standard(n)
            rels = enumerate_convex_equivalences(base)
            rel = rels[rng.randrange(len(rels))]
            for pt in stratum_samples(base, rel, 1):
                line, marks = fiber_over(pt)
                if line.m != len(stratum_of(pt).classes):
                    return False, "component count mismatch"
                labels = list(marks)
                for x in labels:
                    for y in labels:
                        for z in labels:
                            dxy = translation_distance(line, marks[x], marks[y])
                            dyz = translation_distance(line, marks[y], marks[z])
                            dxz = translation_distance(line, marks[x], marks[z])
                            try:
                                if dxy + dyz != dxz:
                                    return False, f"cocycle fails at {(x,y,z)}"
                            except ArithmeticError:
                                continue  # inf + (-inf): undefined case split
                count += 1
        return True, f"{count} sampled fibers classified consistently"

    return _run("classification", body)


def criterion_stratification():
    """Criterion 5: |Conv(I)| matches the closed form 2^(n-1) for n <= 6,
    and finite-coordinate counts match stratum dimensions.  The
    brute-force set-partition oracle compares the relations themselves in
    tests/test_orders.py."""

    def body():
        for n in range(1, 7):
            base = LinOrder.standard(n)
            rels = enumerate_convex_equivalences(base)
            if len(rels) != 2 ** (n - 1):
                return False, f"|Conv| wrong at n={n}"
            for rel in rels:
                for pt in stratum_samples(base, rel, 1):
                    finite = sum(1 for g in pt.gaps() if g.is_finite)
                    if finite != n - len(rel.classes):
                        return False, f"dimension wrong at n={n}, {rel}"
        return True, "Conv counts and stratum dimensions match for n <= 6"

    return _run("stratification", body)


def criterion_day_convolution():
    """Criterion 6: worked dimension formulas, associativity reindexing
    for constant and algebra-generated functors at N=4, zero objects on
    indiscrete inputs of size >= 2."""

    def body():
        const = algebra_to_functor(rational_algebra(), 4)
        conv = day_convolution(const, const, 4)
        if conv.value[flat(3)].dim != 2:
            return False, "constant functor: dim on discrete 3 should be 2"
        if conv.value[point()].dim != 0:
            return False, "singleton should be the zero object"
        for n in (2, 3, 4):
            if conv.value[sharp(n)].dim != 0:
                return False, f"indiscrete size {n} should be the zero object"
        nil = algebra_to_functor(nilpotent_upper3(), 4)
        for trip in ((const, const, const), (nil, nil, nil)):
            report = day_assoc_check(*trip, 4)
            if not report["ok"]:
                return False, f"associativity reindexing: {report['mismatches'][:3]}"
        return True, "dimension formulas and associativity reindexing pass at N=4"

    return _run("day convolution", body)


def criterion_representability_roundtrip():
    """Criterion 7: extract_alpha o build_family is the identity on 100
    random sampled families, and the reverse roundtrip's connecting
    isomorphism exists and is unique."""

    def body():
        rng = random.Random(7)
        for trial in range(100):
            n = rng.randint(1, 4)
            base = LinOrder.standard(n)
            rels = enumerate_convex_equivalences(base)
            points = []
            for _ in range(rng.randint(1, 4)):
                rel = rels[rng.randrange(len(rels))]
                pts = stratum_samples(base, rel, rng.randint(1, 3))
                points.append(pts[rng.randrange(len(pts))])
            family, sections = build_family(base, points)
            recovered = extract_alpha(family, sections)
            for sid, original in family.samples:
                if recovered[sid] != original:
                    return False, f"trial {trial}: alpha changed on {sid}"
                # reverse roundtrip: rebuild the fiber and connect it; the
                # iso is unique, since find_marked_iso returns None unless
                # every component carries a mark that pins its shift
                if reconstruction_iso(recovered[sid], sections[sid]) is None:
                    return False, f"trial {trial}: no connecting iso on {sid}"
        return True, "100 random families roundtrip exactly with unique isos"

    return _run("representability roundtrip", body)


def criterion_cospecialization_demo():
    """Criterion 8: the algebra-generated sheaf on the degenerating path
    has stalks A, ..., A, A(x)A with the multiplication as edge map."""

    def body():
        algebra = nilpotent_upper3()
        sheaf = GlobalSheaf.from_algebra(algebra, 1)
        base = LinOrder.standard(2)
        gaps = [ExtReal(0), ExtReal(1), ExtReal(2), INF]
        points = [RepPoint.from_gaps(base, [g]) for g in gaps]
        family, _sections = build_family(
            base,
            points,
            ids=["t1", "t1/2", "t1/4", "t0"],
            edges=[("t1", "t1/2"), ("t1/2", "t1/4"), ("t1/4", "t0")],
            limits=["t0"],
        )
        ev = evaluate_on_family(sheaf, family)
        dims = [ev.stalks[sid].dim for sid, _ in family.samples]
        d = algebra.dim
        if dims != [d, d, d, d * d]:
            return False, f"stalk dims {dims}"
        edge = ev.edge_maps[("t1/4", "t0")]
        if edge != algebra.multiplication():
            return False, "degeneration edge map is not the multiplication"
        return True, "stalks A, A, A, A(x)A with multiplication at the edge"

    return _run("cospecialization demo", body)


def criterion_morse_demo():
    """Criterion 9: sphere has 2 criticals with index sum 2, torus 4 with
    sum 0 (gradient norms < 1e-8); at least one validated broken min->max
    trajectory on the torus with reparametrization residual < 1e-5 and
    all-infinite extracted gaps; < 60 s."""

    def body():
        from . import morse

        start = time.perf_counter()
        reports = [morse.demo_report(name) for name in ("sphere", "torus")]
        for report, count, chi in zip(reports, (2, 4), (2, 0)):
            crits = report["criticals"]
            if len(crits) != count or report["euler_characteristic"] != chi:
                summary = [(c["h"], c["index"]) for c in crits]
                return False, f"{report['surface']} criticals: {summary}"
        tol_crit = morse.Tolerances().tol_crit
        if any(c["grad_norm"] >= tol_crit for r in reports for c in r["criticals"]):
            return False, "a critical point has gradient norm >= 1e-8"
        # `valid` includes reparam_residual < tol_reparam
        broken_ok = sum(
            t["components"] > 1
            and t["valid"]
            and all(g == "inf" for g in t["rep_point"]["gaps"])
            for t in reports[1]["trajectories"]
        )
        elapsed = time.perf_counter() - start
        if broken_ok == 0:
            return False, "no validated broken trajectory with all-inf gaps"
        if elapsed >= 60.0:
            return False, f"runtime {elapsed:.1f}s exceeds 60s"
        return True, (
            f"sphere 2 criticals (chi 2), torus 4 (chi 0), "
            f"{broken_ok} validated broken trajectories in {elapsed:.1f}s"
        )

    return _run("morse demo", body)


def criterion_truncation_five():
    """Criterion 10: the roundtrips of `_roundtrips` and Day associativity
    at truncation 5, for every builtin algebra."""
    return _run("truncation 5", _roundtrips(list(BUILTIN_ALGEBRAS), 5, assoc=True))


CRITERIA = [
    criterion_mainc_roundtrip,
    criterion_pullback_squares,
    criterion_fiber_product_covering,
    criterion_classification,
    criterion_stratification,
    criterion_day_convolution,
    criterion_representability_roundtrip,
    criterion_cospecialization_demo,
    criterion_morse_demo,
    criterion_truncation_five,
]


def run_all():
    return [c() for c in CRITERIA]
