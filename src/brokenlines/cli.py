"""Command-line entry point.

Reports are machine-readable JSON first (canonical key order, rationals
as p/q in lowest terms), human tables second.  Every report is written by
`_json_text`, whose output is byte for byte
`json.dumps(data, sort_keys=True, indent=2)`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import acceptance
from .families import SampledFamily
from .orders import (
    LinOrder,
    enumerate_amalgams,
    enumerate_convex_equivalences,
    enumerate_linear_preorders,
    enumerate_surjections,
)
from .configurations import verify_join_identity
from .sheaves import GlobalSheaf, evaluate_on_family
from .twisted import (
    algebra_to_functor,
    day_assoc_check,
    day_convolution,
    functor_to_algebra,
    roundtrip_natural_iso,
    tw_enumerate,
)
from .vect import BUILTIN_ALGEBRAS, NonunitalAlgebra
from . import morse as morse_mod


@dataclass
class RunConfig:
    truncation: int = 4
    left: int = 2
    right: int = 2
    n: int = 3


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(node, pad="\n"):
    """json.dumps(node, sort_keys=True, indent=2), byte for byte; pad is a
    newline and the indentation of node's own line.

    json.dumps with indent runs the pure-Python encoder, so strings, ints,
    str-keyed dicts and nonempty lists and tuples are written here, a list
    of ints in one join.  Every other node (floats, bools, None, empty
    containers, non-str keys, subclasses) goes through json.dumps and is
    re-indented, which is exact since JSON text holds no raw newline.
    """
    kind = type(node)
    if kind is str:
        return _encode_str(node)
    if kind is int:
        return int.__repr__(node)
    inner = pad + "  "
    if kind is dict and set(map(type, node)) == {str}:
        items = [
            _encode_str(key) + ": " + _json_text(value, inner)
            for key, value in sorted(node.items())
        ]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if (kind is list or kind is tuple) and node:
        if set(map(type, node)) == {int}:
            items = map(int.__repr__, node)
        else:
            items = [_json_text(value, inner) for value in node]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return json.dumps(node, sort_keys=True, indent=2).replace("\n", pad)


def _dump(data, out_dir, filename):
    text = _json_text(data)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / filename).write_text(text + "\n")
    print(text)


def _load_algebra(ref) -> NonunitalAlgebra:
    if ref.startswith("builtin:"):
        name = ref.split(":", 1)[1]
        if name not in BUILTIN_ALGEBRAS:
            raise SystemExit(
                f"unknown builtin algebra {name!r}; "
                f"choose from {sorted(BUILTIN_ALGEBRAS)}"
            )
        return BUILTIN_ALGEBRAS[name]()
    with open(ref) as fh:
        return NonunitalAlgebra.from_json(json.load(fh))


def _read_config_file(path):
    """Simple key = value lines; '#' starts a comment.  A line without '='
    or a key that is not a RunConfig field raises ValueError."""
    known = [field.name for field in fields(RunConfig)]
    values = {}
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            raise ValueError(f"config line has no '=': {line!r}")
        if key not in known:
            raise ValueError(
                f"unknown config key {key!r}; choose from {known}"
            )
        values[key] = value.strip()
    return values


def _out_dir(args):
    if args.out_dir:
        return Path(args.out_dir)
    env = os.environ.get("BROKENLINES_OUT")
    return Path(env) if env else None


def cmd_enumerate(args, config):
    out = _out_dir(args)
    if args.what == "preorders":
        items = enumerate_linear_preorders(config.n)
        _dump(
            {"n": config.n, "count": len(items), "preorders": [p.to_json() for p in items]},
            out,
            f"preorders_{config.n}.json",
        )
    elif args.what == "convex":
        base = LinOrder.standard(config.n)
        rels = enumerate_convex_equivalences(base)
        edges = [
            [i, j]
            for i, a in enumerate(rels)
            for j, b in enumerate(rels)
            if i != j and a.refines(b)
        ]
        _dump(
            {
                "n": config.n,
                "count": len(rels),
                "relations": [[list(c) for c in r.classes] for r in rels],
                "refinement_edges": edges,
            },
            out,
            f"convex_{config.n}.json",
        )
    elif args.what == "surjections":
        src = LinOrder.standard(config.n)
        tgt = LinOrder.standard(args.target)
        maps = enumerate_surjections(src, tgt)
        _dump(
            {"source": config.n, "target": args.target,
             "count": len(maps), "maps": [m.to_json() for m in maps]},
            out,
            f"surjections_{config.n}_{args.target}.json",
        )
    elif args.what == "amalgams":
        left = LinOrder.standard(config.left)
        right = LinOrder.standard(config.right)
        amalgams = enumerate_amalgams(left, right)
        edges = [
            [i, j]
            for i, a in enumerate(amalgams)
            for j, b in enumerate(amalgams)
            if i != j and a.leq_amalgam(b)
        ]
        _dump(
            {
                "left": config.left,
                "right": config.right,
                "count": len(amalgams),
                "amalgams": [list(a.preorder.ranks) for a in amalgams],
                "poset_edges": edges,
            },
            out,
            f"amalgams_{config.left}_{config.right}.json",
        )
    return 0


def cmd_verify(args, config):
    report = verify_join_identity(
        LinOrder.standard(config.left), LinOrder.standard(config.right)
    )
    payload = {
        "left": config.left,
        "right": config.right,
        "amalgams": report["amalgams"],
        "pairs_checked": report["pairs_checked"],
        "configs_checked": report["configs_checked"],
        "violations": [list(map(str, v)) for v in report["violations"]],
    }
    _dump(payload, _out_dir(args), f"verify_amalgams_{config.left}_{config.right}.json")
    return 0 if not report["violations"] else 1


def cmd_sheaf(args, config):
    algebra = _load_algebra(args.algebra)
    with open(args.family) as fh:
        family = SampledFamily.from_json(json.load(fh))
    sheaf = GlobalSheaf.from_algebra(algebra, max(1, family.index.n - 1))
    ev = evaluate_on_family(sheaf, family)
    payload = {
        "stalk_dims": {sid: ev.stalks[sid].dim for sid, _ in family.samples},
        "edges": {
            f"{a}->{b}": [[str(x) for x in row] for row in m.rows]
            for (a, b), m in sorted(ev.edge_maps.items())
        },
        "incomparable_edges": [list(e) for e in ev.incomparable],
    }
    _dump(payload, _out_dir(args), "sheaf_eval.json")
    return 0


def cmd_roundtrip(args, config):
    algebra = _load_algebra(args.algebra)
    functor = algebra_to_functor(algebra, config.truncation)
    payload = {"algebra": args.algebra, "truncation": config.truncation}
    try:
        back = functor_to_algebra(functor)
        if back != algebra:
            payload["ok"] = False
            payload["witness"] = {
                "recovered": back.to_json(),
                "original": algebra.to_json(),
            }
        else:
            eta = roundtrip_natural_iso(functor)
            payload["ok"] = True
            payload["natural_iso_components"] = len(eta)
    except ValueError as exc:
        payload["ok"] = False
        payload["error"] = str(exc)
    _dump(payload, _out_dir(args), "roundtrip_mainc.json")
    return 0 if payload["ok"] else 1


def cmd_daycon(args, config):
    algebra = _load_algebra(args.algebra)
    functor = algebra_to_functor(algebra, config.truncation)
    conv = day_convolution(functor, functor, config.truncation)
    objects, _ = tw_enumerate(config.truncation)
    assoc = day_assoc_check(functor, functor, functor, config.truncation)
    payload = {
        "algebra": args.algebra,
        "truncation": config.truncation,
        "square_dims": {repr(x): conv.value[x].dim for x in objects},
        "associativity_ok": assoc["ok"],
        "mismatches": [list(map(str, m)) for m in assoc["mismatches"]],
    }
    _dump(payload, _out_dir(args), "daycon.json")
    return 0 if assoc["ok"] else 1


def cmd_morse(args, config):
    report = morse_mod.demo_report(args.surface)
    svg = report.pop("svg")
    out = _out_dir(args)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / f"morse_{args.surface}.svg").write_text(svg)
    _dump(report, out, f"morse_{args.surface}.json")
    return 0


def cmd_accept(args, config):
    results = acceptance.run_all()
    for r in results:
        mark = "PASS" if r["ok"] else "FAIL"
        print(f"[{mark}] {r['name']:28s} ({r['seconds']:7.2f}s)  {r['detail']}")
    payload = {
        "criteria": [
            {k: r[k] for k in ("name", "ok", "detail", "seconds")} for r in results
        ],
        "all_ok": all(r["ok"] for r in results),
    }
    out = _out_dir(args)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / "acceptance.json").write_text(_json_text(payload) + "\n")
    return 0 if payload["all_ok"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="brokenlines",
        description="Combinatorics of the moduli of broken lines, at desk scale.",
    )
    # --out-dir and --truncation may come before or after the subcommand;
    # after it, SUPPRESS keeps an absent flag from resetting the value
    # given before it.
    out_dir = dict(help="directory for JSON/SVG artifacts (or env BROKENLINES_OUT)")
    truncation = dict(type=int, metavar="N", help="truncate the twisted-arrow "
                      "category at orders of size <= N (default 4)")
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("--truncation", default=4, **truncation)
    parser.add_argument("--out-dir", **out_dir)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=argparse.SUPPRESS, **out_dir)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, help):
        return sub.add_parser(name, help=help, parents=[common])

    p_enum = add_parser("enumerate", help="enumerate combinatorial objects")
    p_enum.add_argument(
        "what", choices=["preorders", "convex", "surjections", "amalgams"]
    )
    p_enum.add_argument("--n", type=int, default=3)
    p_enum.add_argument("--target", type=int, default=2)
    p_enum.add_argument("--left", type=int, default=2)
    p_enum.add_argument("--right", type=int, default=2)
    p_enum.set_defaults(fn=cmd_enumerate)

    p_verify = add_parser("verify", help="verify covering/join identities")
    p_verify.add_argument("what", choices=["amalgams"])
    p_verify.add_argument("--left", type=int, default=2)
    p_verify.add_argument("--right", type=int, default=2)
    p_verify.set_defaults(fn=cmd_verify)

    p_sheaf = add_parser("sheaf", help="evaluate a sheaf on a family file")
    p_sheaf.add_argument("--algebra", default="builtin:nilpotent3")
    p_sheaf.add_argument("--family", required=True, help="family JSON file")
    p_sheaf.set_defaults(fn=cmd_sheaf)

    p_round = add_parser("roundtrip", help="run the main-theorem roundtrip")
    p_round.add_argument("what", choices=["mainc"])
    p_round.add_argument("--algebra", default="builtin:nilpotent3")
    p_round.add_argument("--truncation", default=argparse.SUPPRESS, **truncation)
    p_round.set_defaults(fn=cmd_roundtrip)

    p_day = add_parser("daycon", help="Day convolution dimensions and checks")
    p_day.add_argument("--algebra", default="builtin:rational")
    p_day.add_argument("--truncation", default=argparse.SUPPRESS, **truncation)
    p_day.set_defaults(fn=cmd_daycon)

    p_morse = add_parser("morse", help="gradient-flow demo")
    p_morse.add_argument("what", choices=["demo"])
    p_morse.add_argument("--surface", choices=sorted(morse_mod.SURFACES), default="torus")
    p_morse.set_defaults(fn=cmd_morse)

    p_accept = add_parser("accept", help="run the acceptance suite")
    p_accept.set_defaults(fn=cmd_accept)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {}
    if args.config:
        try:
            overrides = _read_config_file(args.config)
        except ValueError as exc:
            parser.error(str(exc))
    try:
        config = RunConfig(
            truncation=int(overrides.get("truncation", args.truncation)),
            left=int(overrides.get("left", getattr(args, "left", 2))),
            right=int(overrides.get("right", getattr(args, "right", 2))),
            n=int(overrides.get("n", getattr(args, "n", 3))),
        )
    except ValueError as exc:
        parser.error(f"config value is not an integer: {exc}")
    bounds = vars(config) | {"target": getattr(args, "target", 1)}
    for name, value in bounds.items():
        if value < 1:
            parser.error(f"{name} must be a positive integer, got {value}")
    return args.fn(args, config)


if __name__ == "__main__":
    sys.exit(main())
