"""CLI handlers of the check commands: shelling, corners, vdc-sample, export-cas and verify.

``cli`` loads this module only to run one of them, so that the counting
commands, ``info`` and ``facets`` do not compile these handlers.  Each
handler imports the engines it runs when it runs, as ``cli``'s do.
"""

from __future__ import annotations

import sys

from .cli import _emit, _load
from .errors import ValidationError


def _cmd_shelling(args) -> int:
    from .bitslice import _columns, _restriction_columns
    from .complex import _shelling_report
    from .cvm import _corner_counts
    from .moves import _facet_masks

    inst = _load(args)
    masks = _facet_masks(inst, args.facet_cap)
    # both scan directions shell: ascending pairs with SE corner counts,
    # descending (the reflected picture) with NW counts.  One batch pass gives
    # R(F) in both orders, its columns transposed back to one mask per facet
    below, above = [], []
    for _, every, _, low, high, _ in _restriction_columns(inst, masks):
        below += _columns(low, every.bit_length())
        above += _columns(high, every.bit_length())
    nw, se = zip(*_corner_counts(inst, masks))
    up = _shelling_report(inst, masks, "SE", below, se)
    down = _shelling_report(inst, masks[::-1], "NW", above[::-1], nw[::-1])
    lines = [f"ascending shelling {'ok' if up.ok else 'FAILED'}",
             "restriction counts " + " ".join(map(str, up.restriction_counts)),
             f"descending shelling {'ok' if down.ok else 'FAILED'}",
             *(rep.failure for rep in (up, down) if rep.failure)]
    _emit(args, {"ascending": up.to_json_obj(), "descending": down.to_json_obj()}, lines)
    return 0 if up.ok and down.ok else 1


def _cmd_vdc(args) -> int:
    from .definitions import check_vertex_decomposition_samples

    inst = _load(args)
    report = check_vertex_decomposition_samples(
        inst, sample_budget=args.samples, size_guard=args.max_cells, seed=args.seed)
    lines = [f"sample ell={s.prefix_length} seed|{len(s.seed_cells)}| "
             f"maximal={s.maximal_count} {'pure' if s.pure else 'IMPURE'}"
             for s in report.samples]
    lines.append("all pure" if report.ok else "IMPURITY FOUND")
    _emit(args, report.to_json_obj(), lines)
    return 0 if report.ok else 1


def _cmd_export(args) -> int:
    from .ideal import export_cas

    inst = _load(args)
    text = export_cas(inst, flavor=args.flavor, generator_cap=args.generator_cap)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_corners(args) -> int:
    from .cvm import _corner_counts
    from .moves import _facet_masks

    inst = _load(args)
    rows = [{"facet": idx, "essential_nw": nw, "essential_se": se} for idx, (nw, se)
            in enumerate(_corner_counts(inst, _facet_masks(inst, args.facet_cap)), start=1)]
    _emit(args, rows,
          [f"facet {r['facet']}: essential NW {r['essential_nw']}, essential SE {r['essential_se']}"
           for r in rows])
    return 0


def _cmd_verify(args) -> int:
    import random

    from .verify import random_instance, verify_instance

    reports = []
    if args.preset or args.file:
        reports.append(verify_instance(_load(args), subset_trials=args.trials,
                                       seed=args.seed, max_cells=args.max_cells,
                                       facet_cap=args.facet_cap))
    rng = random.Random(args.seed)
    for _ in range(args.random):
        inst = random_instance(rng)
        reports.append(verify_instance(inst, subset_trials=args.trials,
                                       seed=rng.randrange(2 ** 30),
                                       max_cells=args.max_cells,
                                       facet_cap=args.facet_cap))
    if not reports:
        raise ValidationError("verify needs --preset, --file, or --random N")
    lines = []
    for rep in reports:
        for check in rep.checks:
            lines.append(f"[{'ok' if check.ok else 'FAIL'}] {check.name}: {check.detail}")
    failed = [rep for rep in reports if not rep.ok]
    if failed:
        first = failed[0].first_failure
        lines.append(f"FAILED: {first.name} on {failed[0].instance!r}: {first.detail}")
    else:
        lines.append(f"all checks passed on {len(reports)} instance(s)")
    _emit(args, [rep.to_json_obj() for rep in reports], lines)
    return 0 if not failed else 1
