"""Command-line front end.

Every computation the library offers is exposed as a subcommand over an
instance loaded from a preset string or a JSON file.  All counts are exact
Python integers; --json switches every subcommand but ``export-cas`` (which
writes a script) to machine-readable output.

Each handler imports the engines it runs when it runs, so a process loads
only what its subcommand needs: ``info`` loads ``quiver`` and ``errors``
alone, the counting commands only the mask path ``moves``, ``series`` and
``bitslice``; oracle routes import theirs when they run.  The handlers of
the check commands live in ``cli_checks``, which loads only to run one.
Only the subcommand run gets options, each only those its handler reads,
and only ``--json`` loads ``json``.  ``facets`` streams the sorted masks of
``moves._facet_masks``, builds no ``CellSet``, and writes its facets in
chunks of 64 as they are formatted, never holding the whole output.  A command whose reader closes
stdout early (``| head``) exits 1 with nothing on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import compress
from typing import TYPE_CHECKING

from . import __version__
from .errors import (DEFAULT_FACET_CAP, DEFAULT_MAX_CELLS, DEFAULT_VDC_GUARD, QuiverDetError,
                     ValidationError)
from .quiver import (MAX_LATTICE_CELLS, BipartiteQuiver, Instance, build_instance,
                     load_instance)

if TYPE_CHECKING:
    from .series import HilbertSeries


def _star_groups(body: str) -> list[str]:
    groups, cur, depth = [], "", 0
    for ch in body:
        if ch == "," and depth == 0:
            groups.append(cur)
            cur = ""
        else:
            depth += ch == "("
            depth -= ch == ")"
            cur += ch
    groups.append(cur)
    if depth != 0:
        raise ValidationError(f"unbalanced parentheses in {body!r}")
    return groups


def _pair(token: str) -> tuple[int, int]:
    if not (token.startswith("(") and token.endswith(")")):
        raise ValidationError(f"expected (m,u), got {token!r}")
    parts = token[1:-1].split(",")
    if len(parts) != 2:
        raise ValidationError(f"expected (m,u), got {token!r}")
    return int(parts[0]), int(parts[1])


def parse_preset(spec: str, mode: str = "strict") -> Instance:
    """Build an instance from a preset shorthand.

    Grammar: det:m,n,u | double:r,m,n,u,v | secant:a,b,t |
    star:m0,(m1,u1),... (target rank defaults to its largest normalized
    value; star:(m0,u0),... sets it) | star-example (the worked three-source
    example with ranks 2,1,1,1).
    """
    if not isinstance(spec, str):
        raise ValidationError(f"preset must be a str, not {spec!r}")
    spec = spec.strip()
    if spec == "star-example":
        return parse_preset("star:(3,2),(2,1),(2,1),(2,1)", mode=mode)
    if ":" not in spec:
        raise ValidationError(f"malformed preset {spec!r}")
    head, body = spec.split(":", 1)
    try:
        if head == "det":
            m, n, u = (int(x) for x in body.split(","))
            quiver = BipartiteQuiver(("2",), ("1",), (("2", "1"),))
            return build_instance(quiver, {"1": m, "2": n}, {"1": u, "2": u}, mode=mode)
        if head == "double":
            r, m, n, u, v = (int(x) for x in body.split(","))
            if r < 1:
                raise ValidationError("double preset needs at least one arrow")
            if r > MAX_LATTICE_CELLS:  # each arrow adds a page of cells: refuse before building
                raise ValidationError(f"double preset has {r} arrows, more than the "
                                      f"{MAX_LATTICE_CELLS} supported")
            quiver = BipartiteQuiver(("2",), ("1",), (("2", "1"),) * r)
            return build_instance(quiver, {"1": m, "2": n}, {"1": u, "2": v}, mode=mode)
        if head == "secant":
            a, b, t = (int(x) for x in body.split(","))
            return parse_preset(f"double:2,{a},{b},{t},{t}", mode=mode)
        if head == "star":
            groups = _star_groups(body)
            if len(groups) < 2:
                raise ValidationError("star preset needs a target and at least one source")
            if groups[0].startswith("("):
                m0, u0 = _pair(groups[0])
            else:
                m0, u0 = int(groups[0]), None
            pairs = [_pair(g) for g in groups[1:]]
            sources = tuple(f"{i + 2}" for i in range(len(pairs)))
            quiver = BipartiteQuiver(sources, ("1",), tuple((s, "1") for s in sources))
            m = {"1": m0, **{s: pm for s, (pm, _) in zip(sources, pairs)}}
            u = {"1": 0, **{s: pu for s, (_, pu) in zip(sources, pairs)}}
            if u0 is None:
                u0 = min(m0, sum(m[s] for s in sources), sum(u[s] for s in sources))
            u["1"] = u0
            return build_instance(quiver, m, u, mode=mode)
    except ValueError as exc:
        raise ValidationError(f"malformed preset {spec!r}: {exc}") from exc
    raise ValidationError(f"unknown preset kind {head!r}")


def _load(args) -> Instance:
    mode = "strict" if args.strict else "normalize"
    if args.preset:
        return parse_preset(args.preset, mode=mode)
    if args.file:
        return load_instance(args.file, mode=mode)
    raise ValidationError("an instance is required: pass --preset or --file")


def _load_series(args) -> HilbertSeries:
    from .series import hilbert_series

    return hilbert_series(_load(args), facet_cap=args.facet_cap)


def _emit(args, json_obj, text_lines):
    if args.json:
        import json

        print(json.dumps(json_obj, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


_CHUNK = 64  # facets per write


def _write_facets(instance: Instance, masks: list[int], as_json: bool) -> None:
    """Write the facets to stdout, text lines or JSON elements, ``_CHUNK`` facets to a write.

    Each cell's text is formatted once per instance, by rank, and a facet is
    the join of its cells' fragments in rank order, which ``compress`` picks
    by the mask's binary digits.  The JSON text is that of
    ``json.dumps([f.to_triples() for f in facets], indent=2, sort_keys=True)``,
    which CPython would build whole, in pure Python, before printing.  The
    list and every facet in it must be nonempty, as ``_facet_masks`` returns
    them.  ``sys.stdout`` is looked up here, so a swapped stream gets the text.
    """
    if as_json:
        cell = "[\n      %d,\n      %d,\n      %d\n    ]"
        lead, rest, sep, tail, end = "[\n  [\n    ", ",\n  [\n    ", ",\n    ", "\n  ]", "\n]\n"
    else:
        cell = "%d,%d,%d"
        lead, rest, sep, tail, end = "", "", " ", "\n", ""
    frag = [cell % c for c in instance.cells]
    write, bits, glue = sys.stdout.write, bytes.maketrans(b"01", b"\0\1"), tail + rest
    for i in range(0, len(masks), _CHUNK):
        chunk = [sep.join(compress(frag, f"{mask:b}"[::-1].encode().translate(bits)))
                 for mask in masks[i:i + _CHUNK]]
        write(lead + glue.join(chunk) + tail)
        lead = rest
    write(end)


def _cmd_info(args) -> int:
    inst = _load(args)
    lines = [f"|L| = {inst.size} cells on {len(inst.arrows)} pages, facet size N = {inst.n_cells}"]
    for vid, d in inst.vertex.items():
        lines.append(f"  {d.side:6s} {vid}: m={d.m} u={d.u} block {d.a}x{d.b} v={d.v}")
    for ar in inst.arrows:
        lines.append(f"  page {ar.k}: {ar.source} -> {ar.target} ({ar.rows}x{ar.cols})")
    rep = inst.normalization
    if rep.trivial:
        lines.append("normalization: no changes")
    else:
        lines.append(f"normalization: {rep.to_json_obj()}")
    obj = inst.to_json_obj()
    obj.update({"cells": inst.size, "facet_size": inst.n_cells,
                "normalization": rep.to_json_obj(),
                "blocks": {vid: {"side": d.side, "a": d.a, "b": d.b, "u": d.u, "v": d.v}
                           for vid, d in inst.vertex.items()}})
    _emit(args, obj, lines)
    return 0


def _cmd_facets(args) -> int:
    from .moves import _facet_masks

    inst = _load(args)
    _write_facets(inst, _facet_masks(inst, args.facet_cap), args.json)
    return 0


def _cmd_multiplicity(args) -> int:
    series = _load_series(args)
    _emit(args, {"multiplicity": series.multiplicity}, [str(series.multiplicity)])
    return 0


def _cmd_hvector(args) -> int:
    series = _load_series(args)
    _emit(args, {"h_vector": list(series.numerator), "palindromic": series.palindromic},
          [" ".join(map(str, series.numerator))])
    return 0


def _cmd_hilbert(args) -> int:
    series = _load_series(args)
    _emit(args, series.to_json_obj(), [series.render()])
    return 0


def _cmd_fvector(args) -> int:
    from .series import face_counts

    table = face_counts(_load(args), facet_cap=args.facet_cap)
    _emit(args, table.to_json_obj(),
          [" ".join(map(str, table.f_vector)), f"total {table.total}"])
    return 0


def _cmd_interior(args) -> int:
    from .series import face_counts

    table = face_counts(_load(args), interior=True, facet_cap=args.facet_cap)
    _emit(args, table.to_json_obj(),
          [" ".join(map(str, table.interior_by_size)),
           f"total {table.interior_total}",
           f"boundary generators {table.boundary_generators}"])
    return 0


# name: (handler, help); a handler named by a str lives in ``cli_checks``, loaded to run it
_COMMANDS = {
    "info": (_cmd_info, "geometry, N, normalization report"),
    "facets": (_cmd_facets, "all facets in shelling order"),
    "multiplicity": (_cmd_multiplicity, "number of facets"),
    "hvector": (_cmd_hvector, "h-polynomial coefficients"),
    "hilbert": (_cmd_hilbert, "Hilbert series"),
    "fvector": (_cmd_fvector, "face counts by dimension"),
    "interior": (_cmd_interior, "interior face counts"),
    "shelling": ("_cmd_shelling", "verify the shelling order"),
    "corners": ("_cmd_corners", "essential corner counts per facet"),
    "vdc-sample": ("_cmd_vdc", "bounded purity spot-check of deletion/link towers"),
    "export-cas": ("_cmd_export", "emit a Macaulay2 or Singular check script"),
    "verify": ("_cmd_verify", "run the full oracle suite"),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser: a known ``command``'s subparser alone, else all, with options if None."""
    parser = argparse.ArgumentParser(
        prog="quiverdet",
        description="Combinatorics of bipartite determinantal ideals: facets, "
                    "f/h-vectors, Hilbert series, and cross-checking oracles.")
    parser.add_argument("--version", action="version", version=f"quiverdet {__version__}")
    one = command in _COMMANDS  # the usage lists every name; unknown names fail as "command"
    subs = parser.add_subparsers(dest="command", required=True,
                                 metavar="{%s}" % ",".join(_COMMANDS) if one else None)
    for name, (func, text) in _COMMANDS.items():
        if one and name != command:
            continue
        sub = subs.add_parser(name, help=text)
        if command not in (None, name):
            continue
        sub.set_defaults(func=func)
        # one instance source: argparse exits 2 when both are given
        src = sub.add_argument_group("instance").add_mutually_exclusive_group()
        src.add_argument("--preset", help="preset shorthand, e.g. double:2,3,2,1,1 or det:3,3,2")
        src.add_argument("--file", help="path to an instance JSON document")
        sub.add_argument("--strict", action="store_true",
                         help="refuse an instance that normalization would change")
        # each subcommand gets only the options its handler reads
        if name != "export-cas":
            sub.add_argument("--json", action="store_true", help="machine-readable output")
        if name in ("vdc-sample", "verify"):
            guard = DEFAULT_VDC_GUARD if name == "vdc-sample" else DEFAULT_MAX_CELLS
            sub.add_argument("--max-cells", type=int, default=guard,
                             help="guard for brute-force operations (default %(default)s)")
            sub.add_argument("--seed", type=int, default=None, help="seed for sampling")
        if name not in ("info", "vdc-sample", "export-cas"):
            sub.add_argument("--facet-cap", type=int, default=DEFAULT_FACET_CAP,
                             help="abort facet enumeration past this many facets")
        if name == "vdc-sample":
            sub.add_argument("--samples", type=int, default=30)
        elif name == "export-cas":
            sub.add_argument("--flavor", choices=("m2", "singular"), default="m2")
            sub.add_argument("--out", help="write the script here instead of stdout")
            sub.add_argument("--generator-cap", type=int, default=5000)
        elif name == "verify":
            sub.add_argument("--random", type=int, default=0,
                             help="additionally verify this many random small instances")
            sub.add_argument("--trials", type=int, default=1000,
                             help="random subsets per instance for the criteria check")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top level takes no option values, so the first other word names the subcommand
    parser = build_parser(next((a for a in argv if not a.startswith("-")), ""))
    args = parser.parse_args(argv)
    if getattr(args, "max_cells", 1) < 1 or getattr(args, "facet_cap", 1) < 1:
        parser.error("guards must be positive")
    for name in ("trials", "random", "samples", "generator_cap"):
        if getattr(args, name, 0) < 0:
            parser.error(f"--{name.replace('_', '-')} must not be negative")
    try:
        if isinstance(args.func, str):
            from . import cli_checks

            args.func = getattr(cli_checks, args.func)
        return args.func(args)
    except QuiverDetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout (``| head``): drop what is left unwritten, so
        # that the flush at exit does not fail again (Python docs, "Note on SIGPIPE")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
