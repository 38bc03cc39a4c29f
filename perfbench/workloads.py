"""Seeded inputs, jobs and exact oracles of the benchmark workloads.

A workload is a list of jobs.  Each job has a `run` callable (the only
part that is timed), an `observe` callable that turns its raw output into
named observations, and the expected value of every observation, fixed
before the job runs.  Every expected key is one checked operation.

Inputs are made from the seed only: algebras in a seeded unimodular basis,
sampled family files, sampled strata and torus radii.  The program sees
them as it would see a user's: JSON files passed to `brokenlines.cli.main`
or objects passed to the public API.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path
from typing import Callable

import brokenlines as bl
from brokenlines import cli, morse, orders

DIGESTS = json.loads((Path(__file__).parent / "digests.json").read_text())

# Two sizes per workload: "full" is the measured one; "tiny" runs in a
# second or two and exists for the self-tests.
SIZES = {
    "mainc": {
        "full": {"roundtrip_n": 4, "daycon_n": 4, "validate_n": 4},
        "tiny": {"roundtrip_n": 3, "daycon_n": 3, "validate_n": 3},
    },
    "strata": {
        "full": {"preorders_n": 7, "amalgams": (3, 4), "verify": ((3, 3),),
                 "tw_n": 5, "samples": 40, "families": 40, "square_max": 4},
        "tiny": {"preorders_n": 4, "amalgams": (2, 2), "verify": ((2, 2),),
                 "tw_n": 3, "samples": 4, "families": 4, "square_max": 2},
    },
    "flow": {
        "full": {"tori": 1, "sphere": True},
        "tiny": {"tori": 0, "sphere": True},
    },
}

# Coarser than the package defaults (and one bisection round instead of
# two) so that one pass of `flow` fits the run length; the pipeline is the
# one `morse.demo_report` runs.
FLOW_TOLERANCES = {"step": 1e-2, "ring_seeds": 8, "grid_points": 101}
REFINE_ROUNDS = 1
# Seeded radii vary the torus without letting the search time swing with
# R / r (up to 1.5x over R in [1.7, 2.4], r in [0.8, 1.2]).
TORUS_R = (1.9, 2.2)
TORUS_r = (0.9, 1.1)


@dataclasses.dataclass
class Job:
    name: str
    run: Callable[[], object]
    observe: Callable[[object], dict]
    expect: dict


# ---------------------------------------------------------------- oracles

def fubini(n):
    """Ordered set partitions of n labels (OEIS A000670)."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(math.comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def canonical(data):
    return json.dumps(data, sort_keys=True, indent=2)


# CLI report keys that hold an enumerated set, and the key of the edge
# list that refers to the set's items by position.
REPORT_SETS = {"preorders": None, "maps": None, "violations": None,
               "amalgams": "poset_edges", "relations": "refinement_edges"}


def canonical_report(data):
    """Canonical JSON of a CLI report with every enumerated set sorted and
    its edges renumbered to match, so the digest does not depend on the
    order in which the program generates the items."""
    out = dict(data)
    for key, edges in REPORT_SETS.items():
        items = out.get(key)
        if not isinstance(items, list):
            continue
        order = sorted(range(len(items)), key=lambda i: canonical(items[i]))
        out[key] = [items[i] for i in order]
        if edges is not None:
            new = {old: pos for pos, old in enumerate(order)}
            out[edges] = sorted([new[a], new[b]] for a, b in out[edges])
    return canonical(out)


def run_cli(argv):
    """(exit code, stdout) of one `brokenlines` invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_json(result):
    code, text = result
    return code, json.loads(text)


# ---------------------------------------------------------- seeded inputs

def unimodular(dim, rng, ops=3):
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


def integer_inverse(p):
    """Exact inverse of a unimodular matrix by Gauss-Jordan over Q."""
    n = len(p)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(p)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    inv = [row[n:] for row in aug]
    if any(x.denominator != 1 for row in inv for x in row):
        raise ValueError("basis change is not unimodular")
    return [[int(x) for x in row] for row in inv]


def rebase(c, p):
    """Integer structure constants `c` in the basis f_i = sum_a p[a][i] e_a."""
    d = len(c)
    q = integer_inverse(p)
    terms = [(m, a, b, x) for m, plane in enumerate(c)
             for a, row in enumerate(plane) for b, x in enumerate(row) if x]
    return [[[sum(q[k][m] * x * p[a][i] * p[b][j] for m, a, b, x in terms)
              for j in range(d)] for i in range(d)] for k in range(d)]


# Nonzero structure constants of the seeded bases (1 and 8 in the builtin
# ones).  The work of a roundtrip grows with them, so a seeded basis is
# drawn until it has this many: each seed gets another basis and another
# pattern of nonzeros, but the same amount of work.
SEEDED_NONZEROS = {"nilpotent3": 6, "mat2": 24}


def seeded_basis(name, algebra, rng):
    """`algebra` in the first seeded unimodular basis with
    SEEDED_NONZEROS[name] nonzero structure constants."""
    c = [[[int(x) for x in row] for row in plane] for plane in algebra.c]
    while True:
        out = rebase(c, unimodular(algebra.dim, rng))
        if sum(1 for plane in out for row in plane for x in row if x) == SEEDED_NONZEROS[name]:
            return bl.NonunitalAlgebra(algebra.dim, out)


def seeded_algebras(rng):
    """nilpotent3 and mat2 in seeded bases, plus zero1 as it is."""
    return {
        "zero1": bl.zero_algebra(1),
        "nilpotent3": seeded_basis("nilpotent3", bl.nilpotent_upper3(), rng),
        "mat2": seeded_basis("mat2", bl.matrix_algebra_2x2(), rng),
    }


def write_json(path, data):
    path.write_text(json.dumps(data, sort_keys=True) + "\n")
    return str(path)


def random_gaps(rng, slots, inf_share=0.3):
    return [bl.INF if rng.random() < inf_share
            else bl.ExtReal(Fraction(rng.randint(0, 24), rng.randint(1, 6)))
            for _ in range(slots)]


def seeded_family(rng, n, samples):
    """A path of sampled points on the standard order of size n."""
    base = bl.LinOrder.standard(n)
    points = [bl.RepPoint.from_gaps(base, random_gaps(rng, n - 1))
              for _ in range(samples)]
    ids = [f"s{k}" for k in range(samples)]
    edges = list(zip(ids, ids[1:]))
    family, _ = bl.build_family(base, points, ids=ids, edges=edges)
    return family


def inf_slots(family, sid):
    return {k for k, g in enumerate(family.point(sid).gaps()) if not g.is_finite}


# --------------------------------------------------------------- workloads

def mainc(seed, size, workdir):
    """Exact algebra: roundtrips, Day convolution and functor validation."""
    cfg = SIZES["mainc"][size]
    rng = random.Random(f"mainc-{seed}")
    algebras = seeded_algebras(rng)
    files = {name: write_json(workdir / f"{name}.json", a.to_json())
             for name, a in algebras.items()}
    jobs = []
    n = cfg["roundtrip_n"]
    for name in ("zero1", "nilpotent3", "mat2"):
        jobs.append(Job(
            f"roundtrip-{name}-{n}",
            lambda f=files[name], n=n: run_cli(
                ["--truncation", str(n), "roundtrip", "mainc", "--algebra", f]),
            _observe_roundtrip,
            {"exit": 0, "ok": True, "natural_iso_components": 2 ** n - 1},
        ))
    n = cfg["daycon_n"]
    d = algebras["nilpotent3"].dim
    jobs.append(Job(
        f"daycon-nilpotent3-{n}",
        lambda f=files["nilpotent3"], n=n: run_cli(
            ["--truncation", str(n), "daycon", "--algebra", f]),
        lambda raw, d=d: _observe_daycon(raw, d),
        {"exit": 0, "associativity_ok": True, "day_dims_match": True,
         "objects": 2 ** n - 1},
    ))
    n = cfg["validate_n"]
    nil = algebras["nilpotent3"]
    jobs.append(Job(
        f"validate-nilpotent3-{n}",
        lambda n=n: _build_and_validate(nil, n),
        lambda raw: _observe_validate(raw, nil),
        {"problem": None, "objects": 2 ** n - 1, "recovered_equals_input": True},
    ))
    return jobs


def _observe_roundtrip(raw):
    code, data = cli_json(raw)
    return {"exit": code, "ok": data.get("ok"),
            "natural_iso_components": data.get("natural_iso_components")}


def _observe_daycon(raw, d):
    """Day square dimensions against (classes - 1) * d^n, reading n and
    the classes off each object's key."""
    code, data = cli_json(raw)
    want = {}
    for key in data["square_dims"]:
        n = int(re.search(r"n=(\d+)", key).group(1))
        want[key] = (key.count("[") - 2) * d ** n
    return {"exit": code, "associativity_ok": data["associativity_ok"],
            "day_dims_match": data["square_dims"] == want,
            "objects": len(data["square_dims"])}


def _build_and_validate(algebra, n):
    functor = bl.algebra_to_functor(algebra, n)
    return functor, functor.validate()


def _observe_validate(raw, seeded):
    """The structure constants read back off the functor must be the seeded
    input exactly, compared as JSON here rather than by the program's own
    `NonunitalAlgebra.__eq__`."""
    functor, problem = raw
    recovered = bl.functor_to_algebra(functor).to_json()
    return {"problem": problem, "objects": len(functor.value),
            "recovered_equals_input": recovered == seeded.to_json()}


def strata(seed, size, workdir):
    """Combinatorics: enumeration, amalgams, strata, families, sheaves."""
    cfg = SIZES["strata"][size]
    rng = random.Random(f"strata-{seed}")
    jobs = []

    def recorded(name):
        return DIGESTS.get(name, "unrecorded")

    n = cfg["preorders_n"]
    jobs.append(Job(
        f"preorders-{n}",
        lambda n=n: run_cli(["enumerate", "preorders", "--n", str(n)]),
        _observe_enumeration,
        {"exit": 0, "count": fubini(n), "digest": recorded(f"preorders-{n}")},
    ))
    p, q = cfg["amalgams"]
    jobs.append(Job(
        f"amalgams-{p}x{q}",
        lambda p=p, q=q: run_cli(
            ["enumerate", "amalgams", "--left", str(p), "--right", str(q)]),
        _observe_enumeration,
        {"exit": 0, "count": math.comb(p + q - 2, p - 1),
         "digest": recorded(f"amalgams-{p}x{q}")},
    ))
    for p, q in cfg["verify"]:
        jobs.append(Job(
            f"verify-{p}x{q}",
            lambda p=p, q=q: run_cli(
                ["verify", "amalgams", "--left", str(p), "--right", str(q)]),
            _observe_verify,
            {"exit": 0, "amalgams": math.comb(p + q - 2, p - 1), "violations": 0,
             "digest": recorded(f"verify-{p}x{q}")},
        ))
    for n, m in ((7, 4), (6, 3)):
        jobs.append(Job(
            f"surjections-{n}-{m}",
            lambda n=n, m=m: run_cli(
                ["enumerate", "surjections", "--n", str(n), "--target", str(m)]),
            _observe_enumeration,
            {"exit": 0, "count": math.comb(n - 1, m - 1),
             "digest": recorded(f"surjections-{n}-{m}")},
        ))
    jobs.append(Job(
        "convex-8",
        lambda: run_cli(["enumerate", "convex", "--n", "8"]),
        _observe_enumeration,
        {"exit": 0, "count": 2 ** 7, "digest": recorded("convex-8")},
    ))
    n = cfg["tw_n"]
    jobs.append(Job(
        f"tw_enumerate-{n}",
        lambda n=n: bl.tw_enumerate(n),
        _observe_tw,
        {"objects": 2 ** n - 1, "digest": recorded(f"tw_enumerate-{n}")},
    ))

    # sheaf --family on seeded family files, in a seeded basis
    nil = seeded_basis("nilpotent3", bl.nilpotent_upper3(), rng)
    alg_file = write_json(workdir / "nilpotent3.json", nil.to_json())
    for k, (n, count) in enumerate(((3, 5), (4, 6))):
        family = seeded_family(rng, n, count)
        fam_file = write_json(workdir / f"family{k}.json", family.to_json())
        jobs.append(Job(
            f"sheaf-family{k}",
            lambda f=fam_file: run_cli(["sheaf", "--algebra", alg_file, "--family", f]),
            _observe_sheaf,
            _expect_sheaf(family, nil.dim),
        ))

    strata_picks = [_pick_stratum(rng) for _ in range(cfg["samples"])]
    jobs.append(Job(
        "fibers-cocycle",
        lambda: [_fiber_check(*pick) for pick in strata_picks],
        lambda raw: {f"fiber{k}": got for k, got in enumerate(raw)},
        {f"fiber{k}": (len(rel.classes), True)
         for k, (_, rel, _, _) in enumerate(strata_picks)},
    ))
    trials = [_family_trial_input(rng) for _ in range(cfg["families"])]
    jobs.append(Job(
        "family-roundtrip",
        lambda: [_family_roundtrip(base, points) for base, points in trials],
        lambda raw: {f"family{k}": ok for k, ok in enumerate(raw)},
        {f"family{k}": True for k in range(len(trials))},
    ))
    sheaves = [bl.zero_algebra(1), nil]
    top = cfg["square_max"]
    surjections = [(s, t) for s in range(1, top + 1) for t in range(1, s + 1)]
    jobs.append(Job(
        "pullback-squares",
        lambda: _pullback_squares(sheaves, top),
        lambda raw: raw,
        {f"sheaf{a}-{s}-{t}": math.comb(s - 1, t - 1) * 3 ** (t - 1)
         for a in range(len(sheaves)) for s, t in surjections},
    ))
    return jobs


def _observe_enumeration(raw):
    code, data = cli_json(raw)
    return {"exit": code, "count": data["count"], "digest": digest(canonical_report(data))}


def _observe_verify(raw):
    code, data = cli_json(raw)
    return {"exit": code, "amalgams": data["amalgams"],
            "violations": len(data["violations"]), "digest": digest(canonical_report(data))}


def _tw_canonical(result):
    """Objects and morphisms as sorted reprs, independent of their order."""
    objects, morphisms = result
    return canonical({"objects": sorted(repr(x) for x in objects),
                      "morphisms": sorted([repr(f.source), repr(f.target), repr(f)]
                                          for f in morphisms)})


def _observe_tw(raw):
    return {"objects": len(raw[0]), "digest": digest(_tw_canonical(raw))}


def _expect_sheaf(family, d):
    dims = {sid: d ** (len(inf_slots(family, sid)) + 1) for sid, _ in family.samples}
    comparable = sum(
        1 for a, b in family.edges
        if inf_slots(family, a) <= inf_slots(family, b)
        or inf_slots(family, b) <= inf_slots(family, a))
    return {"exit": 0, "stalk_dims": dims, "edge_maps": comparable,
            "incomparable": len(family.edges) - comparable}


def _observe_sheaf(raw):
    code, data = cli_json(raw)
    return {"exit": code, "stalk_dims": data["stalk_dims"],
            "edge_maps": len(data["edges"]),
            "incomparable": len(data["incomparable_edges"])}


def _pick_stratum(rng):
    """(base, stratum, sample count, which sample) on an order of size 2..5."""
    n = rng.randint(2, 5)
    base = bl.LinOrder.standard(n)
    rels = bl.enumerate_convex_equivalences(base)
    count = rng.randint(1, 3)
    return base, rels[rng.randrange(len(rels))], count, rng.randrange(count)


def _fiber_check(base, rel, count, pick):
    """(components of the fiber over a stratum sample, whether the
    distance cocycle holds on every triple of marks where the sum is
    defined)."""
    line, marks = bl.fiber_over(bl.stratum_samples(base, rel, count)[pick])
    labels = list(marks)
    d = {(x, y): bl.translation_distance(line, marks[x], marks[y])
         for x in labels for y in labels}
    for x in labels:
        for y in labels:
            for z in labels:
                try:
                    if d[x, y] + d[y, z] != d[x, z]:
                        return line.m, False
                except bl.UndefinedSum:
                    continue
    return line.m, True


def _family_trial_input(rng):
    n = rng.randint(1, 4)
    base = bl.LinOrder.standard(n)
    return base, [bl.RepPoint.from_gaps(base, random_gaps(rng, n - 1))
                  for _ in range(rng.randint(1, 4))]


def _family_roundtrip(base, points):
    """build_family, extract_alpha and find_marked_iso on one sample set:
    alpha comes back exactly and the connecting iso exists."""
    family, sections = bl.build_family(base, points)
    recovered = bl.extract_alpha(family, sections)
    for sid, original in family.samples:
        if recovered[sid] != original:
            return False
        line, marks = bl.fiber_over(recovered[sid])
        fiber = sections[sid]
        if bl.find_marked_iso(line, marks, fiber.line, fiber.marks) is None:
            return False
    return True


def _pullback_squares(algebras, top):
    """Per (sheaf, |source|, |target|): the number of commuting pullback
    squares over all surjections and refining pairs of convex relations."""
    out = {}
    for a, algebra in enumerate(algebras):
        sheaf = bl.GlobalSheaf.from_algebra(algebra, top - 1)
        charts = {n: bl.global_to_constructible(sheaf, bl.LinOrder.standard(n))
                  for n in range(1, top + 1)}
        for s in range(1, top + 1):
            for t in range(1, s + 1):
                src, tgt = bl.LinOrder.standard(s), bl.LinOrder.standard(t)
                rels = bl.enumerate_convex_equivalences(tgt)
                good = 0
                for f in bl.enumerate_surjections(src, tgt):
                    for e in rels:
                        for e2 in rels:
                            if not e.refines(e2):
                                continue
                            pe = orders.preimage_equiv(f, e)
                            pe2 = orders.preimage_equiv(f, e2)
                            if (charts[s].restriction[(pe, pe2)]
                                    == charts[t].restriction[(e, e2)]):
                                good += 1
                out[f"sheaf{a}-{s}-{t}"] = good
    return out


def flow(seed, size, workdir):
    """The Morse pipeline of `morse.demo_report` on seeded tori and the
    sphere, in the same order: criticals, connections, broken
    trajectories, validation and line extraction, SVG."""
    cfg = SIZES["flow"][size]
    rng = random.Random(f"flow-{seed}")
    tol = morse.Tolerances(**FLOW_TOLERANCES)
    surfaces = []
    for _ in range(cfg["tori"]):
        radii = (round(rng.uniform(*TORUS_R), 3), round(rng.uniform(*TORUS_r), 3))
        surfaces.append((f"torus-{radii[0]}-{radii[1]}", lambda r=radii: morse.Torus(*r),
                         4, 0, [0, 1, 1, 2]))
    if cfg["sphere"]:
        surfaces.append(("sphere", morse.Sphere, 2, 2, [0, 2]))
    jobs = []
    for name, make, count, chi, indices in surfaces:
        jobs.append(Job(
            name,
            lambda make=make: _morse_pipeline(make(), tol),
            lambda raw: raw,
            {"criticals": count, "euler_characteristic": chi, "indices": indices,
             "grad_norms_ok": True, "has_trajectories": True, "all_validated": True,
             "broken_all_inf": count == 4, "svg": True},
        ))
    return jobs


def _morse_pipeline(surface, tol):
    criticals = morse.find_critical_points(surface, tol)
    segments = morse.find_connections(surface, criticals, tol, REFINE_ROUNDS)
    trajectories = morse.find_broken_trajectories(
        surface, criticals[0], criticals[-1], tol,
        criticals=criticals, segments=segments)
    validated = broken_all_inf = 0
    for traj in trajectories:
        report = morse.validate_trajectory(traj, tol)
        _line, rep, _marks = morse.trajectory_to_line(traj)
        validated += report.ok
        if (traj.component_count > 1 and report.ok
                and all(not g.is_finite for g in rep.gaps())):
            broken_all_inf += 1
    svg = morse.render_svg(surface, criticals, segments)
    return {
        "criticals": len(criticals),
        "euler_characteristic": morse.euler_characteristic(criticals),
        "indices": [c.index for c in criticals],
        "grad_norms_ok": all(c.grad_norm < tol.tol_crit for c in criticals),
        "has_trajectories": bool(trajectories),
        "all_validated": validated == len(trajectories),
        "broken_all_inf": broken_all_inf > 0,
        "svg": svg.startswith("<svg") and svg.rstrip().endswith("</svg>"),
    }


WORKLOADS = {"mainc": mainc, "strata": strata, "flow": flow}
