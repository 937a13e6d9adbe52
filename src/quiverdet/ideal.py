"""Symbolic generator data and scripts for external computer-algebra checks.

The natural generators are all next-size minors of every block matrix; their
lead terms under the page/row/column lex order are squarefree products over
diagonal chains, which generate the corresponding monomial ideal.  Membership
in that monomial ideal has two routes: the support contains a full-length
chain in some block (generator route), or the support is inside no facet
(decomposition route).
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, permutations
from math import comb
from typing import Iterator, Mapping, NamedTuple

from . import __version__
from .chains import CellSet, is_u_compatible
from .errors import DEFAULT_FACET_CAP, CrossCheckError, GuardExceeded, ValidationError
from .moves import _facet_masks
from .quiver import Cell, Instance, _instance, _is_int, _listed, cell_key

M2 = "m2"
SINGULAR = "singular"
DEFAULT_GENERATOR_CAP = 5000


class MinorSpec(NamedTuple):
    """One next-size minor of a block matrix, by row/column index lists."""

    vertex: str
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    cells: tuple[tuple[Cell, ...], ...]  # resolved entries, row-major


class Monomial(NamedTuple):
    """A monomial on the cell variables; exponents are positive integers."""

    exponents: tuple[tuple[Cell, int], ...]

    @classmethod
    def make(cls, instance: Instance, exponents: Mapping) -> "Monomial":
        if not isinstance(exponents, Mapping):
            raise ValidationError(f"exponents must be a mapping, got {type(exponents).__name__}")
        return cls._checked(instance, exponents.items())

    @classmethod
    def _checked(cls, instance: Instance, pairs) -> "Monomial":
        """The monomial of the ``(cell, exponent)`` pairs, each cell valid, each exponent >= 1."""
        _instance(instance)
        items = []
        for pair in _listed(pairs, "exponents"):
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise ValidationError(f"exponent entry {pair!r} is not a (cell, exponent) pair")
            cell, e = pair
            cell = instance.check_cell(cell)
            if not _is_int(e) or e < 1:
                raise ValidationError(f"exponent of {tuple(cell)} must be a positive integer")
            items.append((cell, e))
        items.sort(key=lambda item: cell_key(item[0]))
        return cls(tuple(items))

    @classmethod
    def from_cells(cls, instance: Instance, cells) -> "Monomial":
        return cls.make(instance, Counter(map(_instance(instance).check_cell,
                                              _listed(cells, "cells"))))

    @property
    def support(self) -> tuple[Cell, ...]:
        return tuple(c for c, _ in self.exponents)

    @property
    def squarefree(self) -> bool:
        return all(e == 1 for _, e in self.exponents)


def natural_generator_count(instance: Instance) -> int:
    _instance(instance)
    return sum(comb(d.a, d.u + 1) * comb(d.b, d.u + 1) for d in instance.vertex.values())


def natural_generators(instance: Instance) -> Iterator[MinorSpec]:
    """Stream all next-size minors of every block matrix, in a fixed order."""
    _instance(instance)
    for vid in (*instance.quiver.targets, *instance.quiver.sources):
        d = instance.vertex[vid]
        n = d.u + 1
        if n > min(d.a, d.b):
            continue
        for rows in combinations(range(1, d.a + 1), n):
            for cols in combinations(range(1, d.b + 1), n):
                cells = tuple(tuple(instance.phi_inv(vid, r, c) for c in cols) for r in rows)
                yield MinorSpec(vid, rows, cols, cells)


def initial_monomials(instance: Instance) -> Iterator[Monomial]:
    """Stream the squarefree lead monomials: one diagonal chain per minor.

    A chain of a given size is determined by its row set and column set, so
    the stream runs in lockstep with natural_generators.
    """
    for spec in natural_generators(instance):
        n = len(spec.rows)
        yield Monomial.from_cells(instance, (spec.cells[t][t] for t in range(n)))


def in_initial_ideal(instance: Instance, monomial: Monomial, facets=None,
                     route: str = "both") -> bool:
    """Monomial-ideal membership, by either or both routes.

    Membership only depends on the squarefree support.  The generator route
    asks whether the support fails admissibility; the decomposition route
    asks whether the support escapes every facet: the given cell sets of
    ``instance``, else the masks of ``moves._facet_masks``.  The monomial
    is read by ``Monomial.make``'s rules, and given facets are checked on
    every route.
    """
    if route not in ("both", "generators", "decomposition"):
        raise ValidationError(f"unknown route {route!r}")
    if not isinstance(monomial, Monomial):
        raise ValidationError(f"expected a Monomial, got {type(monomial).__name__}")
    support = CellSet(instance, Monomial._checked(instance, monomial.exponents).support)
    if facets is not None:
        from .complex import _masks_of

        masks = _masks_of(facets, instance)[0]
    by_gen = by_dec = None
    if route in ("both", "generators"):
        by_gen = not is_u_compatible(support)
    if route in ("both", "decomposition"):
        if facets is None:
            masks = _facet_masks(instance, DEFAULT_FACET_CAP)
        by_dec = all(support.mask & ~mask != 0 for mask in masks)
    if route == "both":
        if by_gen != by_dec:
            raise CrossCheckError(
                f"membership routes disagree on {monomial}: generators={by_gen}, decomposition={by_dec}")
        return by_gen
    return by_gen if route == "generators" else by_dec


# -- script export -------------------------------------------------------------


def _var(cell: Cell) -> str:
    return f"x_{cell.i}_{cell.j}_{cell.k}"


def _det_terms(spec: MinorSpec) -> str:
    """Permutation expansion of the minor, terms in permutation-lex order.

    The leading term under the page/row/column lex order is the main
    diagonal, which the identity permutation emits first.
    """
    n = len(spec.rows)
    parts = []
    for perm in permutations(range(n)):
        inversions = sum(1 for t in range(n) for s in range(t + 1, n) if perm[s] < perm[t])
        sign = "-" if inversions % 2 else "+"
        mono = "*".join(_var(spec.cells[t][perm[t]]) for t in range(n))
        parts.append((sign, mono))
    first_sign, first = parts[0]
    text = first if first_sign == "+" else f"-{first}"
    for sign, mono in parts[1:]:
        text += f"{sign}{mono}"
    return text


def export_cas(instance: Instance, flavor: str = M2,
               generator_cap: int = DEFAULT_GENERATOR_CAP,
               version: str = f"quiverdet {__version__}") -> str:
    """A script declaring the ring, the natural generators, and the check commands.

    Variables are listed so that the system's lex order realizes the
    page/row/column order descending; output is byte-stable for a fixed
    (instance, flavor, version).
    """
    if flavor not in (M2, SINGULAR):
        raise ValidationError(f"unknown flavor {flavor!r}")
    if not isinstance(version, str):
        raise ValidationError(f"version must be a str, not {version!r}")
    if not _is_int(generator_cap) or generator_cap < 0:
        raise ValidationError(f"generator_cap must be an int >= 0, not {generator_cap!r}")
    count = natural_generator_count(instance)
    if count > generator_cap:
        raise GuardExceeded(f"{count} generators exceed the cap {generator_cap}")
    variables = [_var(c) for c in instance.cells]
    gens = [_det_terms(spec) for spec in natural_generators(instance)]

    lines: list[str] = []
    if flavor == M2:
        lines.append(f"-- generated by {version}; {len(variables)} variables, {len(gens)} generators")
        lines.append(f"R = QQ[{', '.join(variables)}, MonomialOrder => Lex];")
        if gens:
            lines.append("I = ideal(")
            for idx, g in enumerate(gens):
                comma = "," if idx + 1 < len(gens) else ""
                lines.append(f"  {g}{comma}")
            lines.append(");")
        else:
            lines.append("I = ideal 0_R;")
        lines.append("inI = ideal leadTerm I;")
        lines.append("print toString inI;")
        lines.append("print toString hilbertSeries(comodule I, Reduce => true);")
    else:
        lines.append(f"// generated by {version}; {len(variables)} variables, {len(gens)} generators")
        lines.append(f"ring R = 0, ({', '.join(variables)}), lp;")
        if gens:
            lines.append("ideal I =")
            for idx, g in enumerate(gens):
                tail = "," if idx + 1 < len(gens) else ";"
                lines.append(f"  {g}{tail}")
        else:
            lines.append("ideal I = 0;")
        lines.append("ideal G = std(I);")
        lines.append("ideal inI = lead(G);")
        lines.append("inI;")
        lines.append("hilb(G, 1);")
        lines.append("exit;")
    return "\n".join(lines) + "\n"
