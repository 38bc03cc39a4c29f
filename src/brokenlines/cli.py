"""Command-line entry point.

Reports are machine-readable JSON first (canonical key order, rationals
as p/q in lowest terms), human tables second.  Every report is byte for
byte `json.dumps(data, sort_keys=True, indent=2)`.  `_json_text` writes
all but one of them: it writes all siblings at one indentation together,
a block at a time, and rows of exact ints by one `%d` template
(`_json_texts`).  The preorders report is text grown straight from the
rank enumeration (`orders.grow_ranks`), with no tuple or preorder object
built: the texts completing a prefix by its last three labels are grown
once per rank bitmask, and each prefix's rows are one `str.join` of
them.  It is written one subtree of the enumeration at a time, so its
memory stays bounded as n grows.  The parser is built once per process
and parsing leaves it unchanged.  Each option is set by its flag alone,
and `enumerate` rejects a flag that its kind does not read.  An unknown
builtin or a malformed `--algebra` or `--family` file ends the run with
a one-line error that names it, and exit code 2.  `morse`, and with it
numpy, is imported only by the command that runs it.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import operator
import os
import sys
from pathlib import Path

from . import acceptance
from .families import SampledFamily
from .orders import (
    LinOrder,
    enumerate_amalgams,
    enumerate_convex_equivalences,
    enumerate_surjections,
    grow_ranks,
    preorder_count,
)
from .configurations import poset_edges, verify_join_identity
from .sheaves import GlobalSheaf, evaluate_on_family
from .twisted import (
    algebra_to_functor,
    day_assoc_check,
    day_convolution,
    roundtrip,
)
from .vect import BUILTIN_ALGEBRAS, NonunitalAlgebra


# The names of morse.SURFACES, kept here so that parsing needs no numpy.
_SURFACES = ("sphere", "torus")

_encode_str = json.encoder.encode_basestring_ascii

# The preorders report is written one chunk per prefix of all but the
# last _CHUNK_LABELS labels: the rows of one subtree of the rank
# enumeration.  Each prefix of all but the last _JOIN_LABELS labels writes
# its rows by one join over the completion texts of its rank bitmask.
_CHUNK_LABELS, _JOIN_LABELS = 6, 3

# Siblings are written at most this many at a time, so the texts of one
# block's descendants are freed before the next block is written.
_BLOCK = 1024


def _json_texts(values, pad):
    """[json.dumps(v, sort_keys=True, indent=2) for v in values], byte for
    byte, for values whose lines are indented like pad (a newline and the
    indentation).

    json.dumps with indent runs the pure-Python encoder, one call per node.
    Here all siblings of one kind are written together: ints and strs by
    one map, dicts sharing one set of str keys column by column, lists or
    tuples of one length whose items are all exact ints by one template
    of "%d" fields (a bool, float or int subclass keeps its row off it),
    and other nonempty lists and tuples as the concatenation of their
    items, cut back into one piece per list.  Siblings of mixed kinds are
    written one at a time.  A lone float, bool, None, empty container,
    dict with a non-str key or subclass instance goes through json.dumps
    and is re-indented, which is exact since JSON text holds no raw
    newline.
    """
    if len(values) > _BLOCK:
        texts = []
        for start in range(0, len(values), _BLOCK):
            texts += _json_texts(values[start : start + _BLOCK], pad)
        return texts
    kinds = set(map(type, values))
    if len(kinds) == 1:
        kind = kinds.pop()
        if kind is int:
            return list(map(int.__repr__, values))
        if kind is str:
            return list(map(_encode_str, values))
        inner = pad + "  "
        if kind is dict:
            shapes = set(map(frozenset, values))
            keys = shapes.pop() if len(shapes) == 1 else ()
            if keys and all(type(key) is str for key in keys):
                parts = []
                for n, key in enumerate(sorted(keys)):
                    lead = ("{" if n == 0 else ",") + inner + _encode_str(key) + ": "
                    column = list(map(operator.itemgetter(key), values))
                    parts += [itertools.repeat(lead), _json_texts(column, inner)]
                parts.append(itertools.repeat(pad + "}"))
                return list(map("".join, zip(*parts)))
        elif kind is list or kind is tuple:
            lengths = list(map(len, values))
            if all(lengths):
                flat = itertools.chain.from_iterable(values)
                if len(set(lengths)) == 1 and set(map(type, flat)) == {int}:
                    row = "[" + inner + ("%d," + inner) * (lengths[0] - 1) + "%d" + pad + "]"
                    rows = values if kind is tuple else map(tuple, values)
                    return list(map(row.__mod__, rows))
                ends = list(itertools.accumulate(lengths))
                items = _json_texts(list(itertools.chain.from_iterable(values)), inner)
                sep = "," + inner
                return [
                    "[" + inner + sep.join(items[cut]) + pad + "]"
                    for cut in map(slice, [0] + ends, ends)
                ]
    if len(values) > 1:
        return [_json_texts([value], pad)[0] for value in values]
    return [json.dumps(values[0], sort_keys=True, indent=2).replace("\n", pad)]


def _json_text(node):
    """json.dumps(node, sort_keys=True, indent=2), byte for byte."""
    return _json_texts([node], "\n")[0]


def _dump(data, out_dir, filename):
    _write([_json_text(data) + "\n"], out_dir, filename)


def _write(chunks, out_dir, filename):
    """Write each text of chunks to stdout, and to out_dir/filename if
    out_dir is given, as soon as it is made."""
    chunks = iter(chunks)  # so a broken pipe resumes after the last chunk
    write = sys.stdout.write
    if out_dir is None:
        for chunk in chunks:
            write(chunk)
        return
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / filename, "w") as fh:
        try:
            for chunk in chunks:
                fh.write(chunk)
                write(chunk)
        except BrokenPipeError:
            # a reader of stdout that quits early leaves the file whole
            for chunk in chunks:
                fh.write(chunk)
            raise


def _preorder_chunks(n, count):
    """The text of the preorders report, _json_text({"count": count, "n":
    n, "preorders": [{"n": n, "rank": list(word)} for word in
    preorder_ranks(n)]}) + "\n" byte for byte, one subtree at a time: one
    chunk per prefix of the first n - _CHUNK_LABELS labels, in
    lexicographic order (one chunk for n <= _CHUNK_LABELS), then the
    closing lines.  A word grows by the text of its rank lines.  The
    completions of a prefix of all but the last _JOIN_LABELS labels
    depend only on its rank bitmask, so their texts are grown once per
    bitmask, and the prefix's rows are one join of them."""
    pieces = ["\n        %d".__mod__] + [",\n        %d".__mod__] * (n - 1)
    head, tail = '{\n      "n": %d,\n      "rank": [' % n, "\n      ]\n    }"
    depth, last = max(n - _CHUNK_LABELS, 0), max(n - _JOIN_LABELS, 0)
    lead = '{\n  "count": %d,\n  "n": %d,\n  "preorders": [\n    ' % (count, n)
    sep = ",\n    "
    completions = functools.cache(lambda used: grow_ranks([""], [used], pieces[last:])[0])
    for start, used in zip(*grow_ranks([""], [0], pieces[:depth], n - depth)):
        prefixes = zip(*grow_ranks([start], [used], pieces[depth:last], n - last))
        yield lead + sep.join(
            head + prefix + (tail + sep + head + prefix).join(completions(used)) + tail
            for prefix, used in prefixes
        )
        lead = sep
    yield "\n  ]\n}\n"


def _load_algebra(ref) -> NonunitalAlgebra:
    if ref.startswith("builtin:"):
        name = ref.split(":", 1)[1]
        if name not in BUILTIN_ALGEBRAS:
            raise _InputError(f"unknown builtin algebra {name!r}; "
                              f"choose from {sorted(BUILTIN_ALGEBRAS)}")
        return BUILTIN_ALGEBRAS[name]()
    return _read_json(ref, _associative_algebra)


def _associative_algebra(data) -> NonunitalAlgebra:
    """NonunitalAlgebra.from_json(data), which must be associative."""
    return NonunitalAlgebra.from_json(data).require_associative()


def _family_on_linear_order(data) -> SampledFamily:
    """SampledFamily.from_json(data), whose index must be a linear order."""
    family = SampledFamily.from_json(data)
    if not family.index.is_linear_order:
        raise ValueError(
            f"family index {list(family.index.ranks)} is not a linear order"
        )
    return family


class _InputError(Exception):
    """An input named on the command line that does not give its object."""


def _read_json(path, build):
    """build(the JSON value in the file at path); a file that cannot be
    read, is not JSON or does not describe the object raises _InputError
    with a one-line reason that names the file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        if type(data) is not dict:
            raise TypeError(f"expected a JSON object, got {type(data).__name__}")
        return build(data)
    except OSError as exc:
        reason = exc.strerror
    except KeyError as exc:
        reason = f"missing key {exc}"
    except (ValueError, TypeError) as exc:
        reason = str(exc)
    raise _InputError(f"{path}: {reason}")


# The flags each kind of `enumerate` reads, with their defaults.
_ENUMERATE_FLAGS = {
    "preorders": {"n": 3},
    "convex": {"n": 3},
    "surjections": {"n": 3, "target": 2},
    "amalgams": {"left": 2, "right": 2},
}


def cmd_enumerate(args):
    args = argparse.Namespace(**{**_ENUMERATE_FLAGS[args.what], **vars(args)})
    if args.what == "preorders":
        # counted, and every final bitmask checked, before the first byte
        count = preorder_count(args.n)
        _write(_preorder_chunks(args.n, count), args.out_dir, f"preorders_{args.n}.json")
    elif args.what == "convex":
        base = LinOrder.standard(args.n)
        rels = enumerate_convex_equivalences(base)
        # a refines b iff every cut of b, where a class starts, cuts a too
        cuts = [frozenset(c[0] for c in r.classes[1:]) for r in rels]
        edges = [
            [i, j]
            for i, a in enumerate(cuts)
            for j, b in enumerate(cuts)
            if i != j and b <= a
        ]
        _dump(
            {
                "n": args.n,
                "count": len(rels),
                "relations": [[list(c) for c in r.classes] for r in rels],
                "refinement_edges": edges,
            },
            args.out_dir,
            f"convex_{args.n}.json",
        )
    elif args.what == "surjections":
        src = LinOrder.standard(args.n)
        tgt = LinOrder.standard(args.target)
        maps = enumerate_surjections(src, tgt)
        _dump(
            {"source": args.n, "target": args.target,
             "count": len(maps), "maps": [m.to_json() for m in maps]},
            args.out_dir,
            f"surjections_{args.n}_{args.target}.json",
        )
    elif args.what == "amalgams":
        left = LinOrder.standard(args.left)
        right = LinOrder.standard(args.right)
        amalgams = enumerate_amalgams(left, right)
        _dump(
            {
                "left": args.left,
                "right": args.right,
                "count": len(amalgams),
                "amalgams": [list(a.preorder.ranks) for a in amalgams],
                "poset_edges": poset_edges(amalgams),
            },
            args.out_dir,
            f"amalgams_{args.left}_{args.right}.json",
        )
    return 0


def cmd_verify(args):
    report = verify_join_identity(
        LinOrder.standard(args.left), LinOrder.standard(args.right)
    )
    payload = {
        "left": args.left,
        "right": args.right,
        "amalgams": report["amalgams"],
        "pairs_checked": report["pairs_checked"],
        "configs_checked": report["configs_checked"],
        "violations": [list(map(str, v)) for v in report["violations"]],
    }
    _dump(payload, args.out_dir, f"verify_amalgams_{args.left}_{args.right}.json")
    return 0 if not report["violations"] else 1


def cmd_sheaf(args):
    algebra = _load_algebra(args.algebra)
    family = _read_json(args.family, _family_on_linear_order)
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
    _dump(payload, args.out_dir, "sheaf_eval.json")
    return 0


def cmd_roundtrip(args):
    algebra = _load_algebra(args.algebra)
    payload = {"algebra": args.algebra, "truncation": args.truncation}
    try:
        _, recovered, eta = roundtrip(algebra, args.truncation)
    except ValueError as exc:
        payload.update(ok=False, error=str(exc))
    else:
        payload["ok"] = eta is not None
        if eta is None:
            payload["witness"] = {
                "recovered": recovered.to_json(),
                "original": algebra.to_json(),
            }
        else:
            payload["natural_iso_components"] = len(eta)
    _dump(payload, args.out_dir, "roundtrip_mainc.json")
    return 0 if payload["ok"] else 1


def cmd_daycon(args):
    algebra = _load_algebra(args.algebra)
    functor = algebra_to_functor(algebra, args.truncation)
    conv = day_convolution(functor, functor, args.truncation)
    assoc = day_assoc_check(functor, functor, functor, args.truncation)
    payload = {
        "algebra": args.algebra,
        "truncation": args.truncation,
        "square_dims": {repr(x): v.dim for x, v in conv.value.items()},
        "associativity_ok": assoc["ok"],
        "mismatches": [list(map(str, m)) for m in assoc["mismatches"]],
    }
    _dump(payload, args.out_dir, "daycon.json")
    return 0 if assoc["ok"] else 1


def cmd_morse(args):
    from . import morse

    report = morse.demo_report(args.surface)
    svg = report.pop("svg")
    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        (args.out_dir / f"morse_{args.surface}.svg").write_text(svg)
    _dump(report, args.out_dir, f"morse_{args.surface}.json")
    return 0


def cmd_accept(args):
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
    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        (args.out_dir / "acceptance.json").write_text(_json_text(payload) + "\n")
    return 0 if payload["all_ok"] else 1


class _Misplaced(argparse.Action):
    """A subcommand's option given before it: a usage error saying so."""

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"{option_string} goes after the subcommand")


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="brokenlines",
        description="Combinatorics of the moduli of broken lines, at desk scale.",
    )
    # SUPPRESS keeps an absent --truncation out of the namespace: the later value wins
    truncation = dict(type=int, metavar="N", default=argparse.SUPPRESS, help="roundtrip, daycon: "
                      "truncate the twisted-arrow category at orders of size <= N (default 4)")
    parser.add_argument("--truncation", **truncation)
    parser.add_argument("--out-dir", action=_Misplaced, dest=argparse.SUPPRESS,
                        help=argparse.SUPPRESS)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", type=lambda text: Path(text) if text else None,
                        help="directory for JSON/SVG artifacts ('' writes none)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, help):
        return sub.add_parser(name, help=help, parents=[common])

    p_enum = add_parser("enumerate", help="enumerate combinatorial objects")
    p_enum.add_argument(
        "what", choices=["preorders", "convex", "surjections", "amalgams"]
    )
    # SUPPRESS keeps an absent flag out of the namespace, so a flag given to
    # a kind that does not read it is seen (main) and rejected
    for flag, help in (
        ("--n", "preorders, convex, surjections: the number of labels (default 3)"),
        ("--target", "surjections: the number of labels of the target (default 2)"),
        ("--left", "amalgams: the number of labels of the left order (default 2)"),
        ("--right", "amalgams: the number of labels of the right order (default 2)"),
    ):
        p_enum.add_argument(flag, type=int, metavar="N", default=argparse.SUPPRESS, help=help)
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
    p_round.add_argument("--truncation", **truncation)
    p_round.set_defaults(fn=cmd_roundtrip)

    p_day = add_parser("daycon", help="Day convolution dimensions and checks")
    p_day.add_argument("--algebra", default="builtin:rational")
    p_day.add_argument("--truncation", **truncation)
    p_day.set_defaults(fn=cmd_daycon)

    p_morse = add_parser("morse", help="gradient-flow demo")
    p_morse.add_argument("what", choices=["demo"])
    p_morse.add_argument("--surface", choices=_SURFACES, default="torus")
    p_morse.set_defaults(fn=cmd_morse)

    p_accept = add_parser("accept", help="run the acceptance suite")
    p_accept.set_defaults(fn=cmd_accept)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("roundtrip", "daycon"):
        vars(args).setdefault("truncation", 4)
    elif "truncation" in vars(args):
        parser.error(f"--truncation applies to roundtrip and daycon only, not {args.command}")
    if args.command == "enumerate":
        for name in ("n", "target", "left", "right"):
            if name in vars(args) and name not in _ENUMERATE_FLAGS[args.what]:
                parser.error(f"--{name} does not apply to enumerate {args.what}")
    for name in ("truncation", "left", "right", "n", "target"):
        value = getattr(args, name, 1)
        if value < 1:
            parser.error(f"{name} must be a positive integer, got {value}")
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so a reader that quit early (`| head`) shows here
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _InputError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
