"""Bipartite quiver instances, block-matrix geometry, and the cell lattice.

An instance fixes a bipartite quiver (arrows go from source vertices to
target vertices, arrow order is significant), a dimension vector ``m`` and a
rank vector ``u``.  Every arrow k carries a page of variable cells of shape
``m[target] x m[source]``; the pages concatenate horizontally into one block
matrix per target and stack vertically into one block matrix per source.
All downstream combinatorics lives on the cell lattice L of triples
``(i, j, k)`` (row, column, page; 1-based) under the total order
"page, then row, then column".
"""

from __future__ import annotations

from itertools import chain
from typing import Mapping, NamedTuple

from .errors import ValidationError

TARGET = "target"
SOURCE = "source"
HORIZONTAL, VERTICAL = "horizontal", "vertical"  # paths and chute moves: target, source blocks
MAX_LATTICE_CELLS = 1 << 16  # |L| past which an instance is refused before its cells are built


class Cell(NamedTuple):
    """A lattice point of L: row ``i``, column ``j`` on page ``k`` (1-based)."""

    i: int
    j: int
    k: int


def cell_key(cell) -> tuple[int, int, int]:
    """Sort key realizing the total order on cells: page, then row, then column."""
    try:
        i, j, k = cell
    except (TypeError, ValueError):
        raise ValidationError(f"cell {cell!r} is not an (i, j, k) triple") from None
    if not (_is_int(i) and _is_int(j) and _is_int(k)):
        raise ValidationError(f"cell {cell!r} has a part that is not an int")
    return (k, i, j)


def cmp_T(a, b) -> int:
    """Compare two cells under the total order; returns -1, 0 or 1."""
    ka, kb = cell_key(a), cell_key(b)
    return (ka > kb) - (ka < kb)


class _QuiverFields(NamedTuple):
    sources: tuple[str, ...]
    targets: tuple[str, ...]
    arrows: tuple[tuple[str, str], ...]


class BipartiteQuiver(_QuiverFields):
    """A bipartite quiver: arrows run from sources to targets, in a fixed order.

    The arrow order is part of the data; it fixes the page order inside every
    block matrix.  Vertex ids are strings, as JSON object keys are.
    """

    __slots__ = ()

    def __new__(cls, sources, targets, arrows):
        for name, field in (("sources", sources), ("targets", targets), ("arrows", arrows)):
            if not isinstance(field, tuple):
                raise ValidationError(f"{name} must be a tuple, got {type(field).__name__}")
        for arrow in arrows:
            if not (isinstance(arrow, tuple) and len(arrow) == 2):
                raise ValidationError(f"arrow {arrow!r} is not a (source, target) pair")
        for vid in chain(sources, targets, *arrows):
            if not isinstance(vid, str):
                raise ValidationError(f"vertex id {vid!r} is not a string")
        src_set, tgt_set = set(sources), set(targets)
        if len(src_set) != len(sources) or len(tgt_set) != len(targets):
            raise ValidationError("duplicate vertex ids")
        if src_set & tgt_set:
            raise ValidationError(f"source and target ids overlap: {sorted(src_set & tgt_set)}")
        for s, t in arrows:
            if s not in src_set:
                raise ValidationError(f"arrow {s}->{t}: {s!r} is not a source vertex")
            if t not in tgt_set:
                raise ValidationError(f"arrow {s}->{t}: {t!r} is not a target vertex")
        return super().__new__(cls, sources, targets, arrows)

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through ``_make``: validate there too
        return cls(*iterable)

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.sources + self.targets


class Arrow(NamedTuple):
    """One arrow with its page geometry and offsets into both block matrices."""

    k: int
    source: str
    target: str
    rows: int        # m[target]
    cols: int        # m[source]
    col_offset: int  # columns of earlier pages inside the target block
    row_offset: int  # rows of earlier pages inside the source block
    vpath_offset: int  # source ranks of earlier pages into the target (vertical paths)
    hpath_offset: int  # target ranks of earlier pages out of the source (horizontal paths)


class VertexData(NamedTuple):
    """Derived block geometry of one vertex."""

    vid: str
    side: str  # TARGET or SOURCE
    m: int
    u: int
    a: int     # block rows
    b: int     # block cols
    v: int     # rank sum over the opposite endpoints of incident arrows


class NormalizationReport(NamedTuple):
    """What build_instance(mode="normalize") changed to reach the normal form."""

    clamped: tuple[tuple[str, int, int], ...] = ()      # (vertex, old u, new u)
    removed_vertices: tuple[str, ...] = ()
    removed_pages: tuple[tuple[str, str, int, int], ...] = ()  # (source, target, rows, cols)

    @property
    def removed_variable_count(self) -> int:
        return sum(r * c for _, _, r, c in self.removed_pages)

    @property
    def trivial(self) -> bool:
        return not (self.clamped or self.removed_vertices or self.removed_pages)

    def to_json_obj(self) -> dict:
        return {
            "clamped": [{"vertex": v, "from": old, "to": new} for v, old, new in self.clamped],
            "removed_vertices": list(self.removed_vertices),
            "removed_pages": [
                {"from": s, "to": t, "rows": r, "cols": c} for s, t, r, c in self.removed_pages
            ],
            "removed_variable_count": self.removed_variable_count,
        }


def _derive_geometry(quiver: BipartiteQuiver, m: Mapping[str, int], u: Mapping[str, int]):
    """Compute (a, b, v) for every vertex from the current quiver and ranks."""
    geom = {}
    for t in quiver.targets:
        b = sum(m[s] for s, tt in quiver.arrows if tt == t)
        v = sum(u[s] for s, tt in quiver.arrows if tt == t)
        geom[t] = (m[t], b, v)
    for s in quiver.sources:
        a = sum(m[t] for ss, t in quiver.arrows if ss == s)
        v = sum(u[t] for ss, t in quiver.arrows if ss == s)
        geom[s] = (a, m[s], v)
    return geom


class Instance:
    """A validated (quiver, m, u) triple with all derived geometry.

    Instances are immutable after construction and safe to share across
    threads; every downstream operation is a pure function of an Instance
    plus cell data.
    """

    def __init__(self, quiver: BipartiteQuiver, m: Mapping[str, int], u: Mapping[str, int],
                 normalization: NormalizationReport | None = None):
        _check_fields(quiver, m, u)
        self.quiver = quiver
        self.m = dict(m)
        self.u = dict(u)
        if normalization is not None and not isinstance(normalization, NormalizationReport):
            raise ValidationError(
                f"normalization must be a NormalizationReport, not {normalization!r}")
        self.normalization = NormalizationReport() if normalization is None else normalization
        size = sum(self.m[t] * self.m[s] for s, t in quiver.arrows)
        if size > MAX_LATTICE_CELLS:
            raise ValidationError(
                f"the cell lattice has {size} cells, more than the {MAX_LATTICE_CELLS} supported")

        geom = _derive_geometry(quiver, self.m, self.u)
        self.vertex: dict[str, VertexData] = {}
        for vid in quiver.targets:
            a, b, v = geom[vid]
            self.vertex[vid] = VertexData(vid, TARGET, self.m[vid], self.u[vid], a, b, v)
        for vid in quiver.sources:
            a, b, v = geom[vid]
            self.vertex[vid] = VertexData(vid, SOURCE, self.m[vid], self.u[vid], a, b, v)

        arrows = []
        col_used = {t: 0 for t in quiver.targets}
        row_used = {s: 0 for s in quiver.sources}
        vpaths = {t: 0 for t in quiver.targets}
        hpaths = {s: 0 for s in quiver.sources}
        for k, (s, t) in enumerate(quiver.arrows, start=1):
            rows, cols = self.m[t], self.m[s]
            arrows.append(Arrow(k, s, t, rows, cols, col_used[t], row_used[s],
                                vpaths[t], hpaths[s]))
            col_used[t] += cols
            row_used[s] += rows
            vpaths[t] += self.u[s]
            hpaths[s] += self.u[t]
        self.arrows: tuple[Arrow, ...] = tuple(arrows)

        # Cell geometry, built once: per rank the cell's target-block and
        # source-block positions, and per block the ranks of its positions in
        # row-major order (the pages tile every block, so this is the inverse).
        cells = []
        positions = []
        for ar in self.arrows:
            for i in range(1, ar.rows + 1):
                for j in range(1, ar.cols + 1):
                    cells.append(Cell(i, j, ar.k))
                    positions.append((ar.target, i, ar.col_offset + j,
                                      ar.source, ar.row_offset + i, j))
        self.cells: tuple[Cell, ...] = tuple(cells)  # already in (k, i, j) order
        self.rank: dict[Cell, int] = {c: r for r, c in enumerate(self.cells)}
        self.size: int = len(self.cells)
        self.positions: tuple[tuple[str, int, int, str, int, int], ...] = tuple(positions)
        grid = {vid: [[0] * d.b for _ in range(d.a)] for vid, d in self.vertex.items()}
        for r, (tv, ti, tj, sv, si, sj) in enumerate(positions):
            grid[tv][ti - 1][tj - 1] = r
            grid[sv][si - 1][sj - 1] = r
        self.block_ranks: dict[str, tuple[tuple[int, ...], ...]] = {
            vid: tuple(map(tuple, rows)) for vid, rows in grid.items()}

        self.n_cells: int = (
            sum(self.u[a.source] * self.u[a.target] for a in self.arrows)
            + sum(d.u * (d.a - d.u) for d in self.vertex.values() if d.side == TARGET)
            + sum(d.u * (d.b - d.u) for d in self.vertex.values() if d.side == SOURCE)
        )

        self._key = (quiver.sources, quiver.targets, quiver.arrows,
                     tuple(sorted(self.m.items())), tuple(sorted(self.u.items())))

    # -- structural identity ------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Instance) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return (f"Instance(sources={list(self.quiver.sources)}, targets={list(self.quiver.targets)}, "
                f"arrows={list(self.quiver.arrows)}, |L|={self.size}, N={self.n_cells})")

    # -- coordinate maps ------------------------------------------------------

    def arrow(self, k: int) -> Arrow:
        """Arrow ``k``, counted from 1."""
        if not (_is_int(k) and 1 <= k <= len(self.arrows)):
            raise ValidationError(f"arrow {k!r} out of range 1..{len(self.arrows)}")
        return self.arrows[k - 1]

    def _vertex(self, vid) -> VertexData:
        """The data of vertex ``vid``; ``ValidationError`` for anything else."""
        data = self.vertex.get(vid) if isinstance(vid, str) else None
        if data is None:
            raise ValidationError(f"no vertex {vid!r}")
        return data

    def check_cell(self, cell) -> Cell:
        """The cell named by an (i, j, k) triple of ints; ``ValidationError`` for anything else."""
        k, i, j = cell_key(cell)
        r = self.rank.get((i, j, k))
        if r is None:
            raise ValidationError(f"cell {(i, j, k)} out of range")
        return self.cells[r]

    def cell_mask(self, cells) -> int:
        """The rank bitmask of an iterable of cells, each validated by ``check_cell``.

        An item that is this instance's own ``Cell`` object (the very object
        in ``self.cells``) is known valid and skips the check.
        """
        try:
            items = iter(cells)
        except TypeError:
            raise ValidationError(f"cells {cells!r} is not an iterable of cells") from None
        rank, own = self.rank, self.cells
        mask = 0
        for c in items:
            r = rank.get(c) if type(c) is Cell else None
            if r is None or own[r] is not c:
                r = rank[self.check_cell(c)]
            mask |= 1 << r
        return mask

    def phi_target(self, cell) -> tuple[str, int, int]:
        """Block-matrix position of a cell on its target side: (vertex, row, col)."""
        return self.positions[self.rank[self.check_cell(cell)]][:3]

    def phi_source(self, cell) -> tuple[str, int, int]:
        """Block-matrix position of a cell on its source side: (vertex, row, col)."""
        return self.positions[self.rank[self.check_cell(cell)]][3:]

    def _block_cell(self, vid: str, row: int, col: int, side: str) -> Cell:
        data = self._vertex(vid)
        if data.side != side:
            raise ValidationError(f"{vid!r} is not a {side} vertex")
        if not (_is_int(row) and _is_int(col) and 1 <= row <= data.a and 1 <= col <= data.b):
            raise ValidationError(f"position ({row},{col}) outside block of {vid!r}")
        return self.cells[self.block_ranks[vid][row - 1][col - 1]]

    def phi_target_inv(self, vid: str, row: int, col: int) -> Cell:
        return self._block_cell(vid, row, col, TARGET)

    def phi_source_inv(self, vid: str, row: int, col: int) -> Cell:
        return self._block_cell(vid, row, col, SOURCE)

    def phi(self, vid: str, cell) -> tuple[int, int]:
        """Position of a cell inside the block matrix of ``vid`` (either side)."""
        if self._vertex(vid).side == TARGET:
            v, r, c = self.phi_target(cell)
        else:
            v, r, c = self.phi_source(cell)
        if v != vid:
            raise ValidationError(f"cell {tuple(cell)} does not lie in the block of {vid!r}")
        return r, c

    def phi_inv(self, vid: str, row: int, col: int) -> Cell:
        return self._block_cell(vid, row, col, self._vertex(vid).side)

    # -- serialization --------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "sources": list(self.quiver.sources),
            "targets": list(self.quiver.targets),
            "arrows": [{"from": s, "to": t} for s, t in self.quiver.arrows],
            "m": dict(self.m),
            "u": dict(self.u),
        }

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)


def _prefix_masks(ranks) -> list[int]:
    """Rank masks of a line's first 0, 1, 2, ... positions (block rows, or scan lines in moves)."""
    acc, line = 0, [0]
    for r in ranks:
        acc |= 1 << r
        line.append(acc)
    return line


def _is_int(value) -> bool:
    """True for an int that is not a bool (JSON ``true`` must not pass as 1)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _listed(items, name: str) -> list:
    """The items of ``items``, if it is an iterable; else a ValidationError naming it ``name``."""
    try:
        iterator = iter(items)
    except TypeError:
        raise ValidationError(f"{name} must be an iterable, got {type(items).__name__}") from None
    return list(iterator)


def _instance(value) -> Instance:
    """``value``, if it is the ``Instance`` the public functions take; else a ValidationError."""
    if not isinstance(value, Instance):
        raise ValidationError(f"expected an Instance, got {type(value).__name__}")
    return value


def _check_fields(quiver: BipartiteQuiver, m: Mapping[str, int], u: Mapping[str, int]) -> None:
    """Refuse fields no instance is built from, before anything reads them.

    The quiver must be a ``BipartiteQuiver`` and ``m`` and ``u`` mappings
    that give every vertex an int, m at least 1 and u at least 0.
    ``build_instance`` runs this before it normalizes and ``Instance`` when
    it is built; the rank bounds are ``build_instance``'s alone.
    """
    if not isinstance(quiver, BipartiteQuiver):
        raise ValidationError(f"expected a BipartiteQuiver, got {type(quiver).__name__}")
    for name, value in (("m", m), ("u", u)):
        if not isinstance(value, Mapping):
            raise ValidationError(f"{name} must be a mapping, got {type(value).__name__}")
    for vid in quiver.vertices:
        if vid not in m:
            raise ValidationError(f"m missing for vertex {vid!r}")
        if vid not in u:
            raise ValidationError(f"u missing for vertex {vid!r}")
        if not _is_int(m[vid]) or m[vid] < 1:
            raise ValidationError(f"m[{vid!r}] must be a positive integer, got {m[vid]!r}")
        if not _is_int(u[vid]):
            raise ValidationError(f"u[{vid!r}] must be an integer, got {u[vid]!r}")
        if u[vid] < 0:
            raise ValidationError(f"u[{vid!r}] = {u[vid]} is negative")


def build_instance(quiver: BipartiteQuiver, m: Mapping[str, int], u: Mapping[str, int],
                   mode: str = "strict") -> Instance:
    """Validate or normalize (quiver, m, u) and build an Instance.

    The normalized rank constraints are ``0 < u <= min(a, b, v)``.  normalize
    mode clamps ranks down to those bounds iteratively until stable, removes
    rank-0 vertices with their incident arrows (the dropped pages are
    reported, their variables would turn into degree-one generators), and
    records everything in the instance's NormalizationReport.  strict mode
    runs the loop's first pass and raises where it would clamp or drop a
    vertex, naming the vertex, its rank and min(a, b, v): it succeeds exactly
    when normalization changes nothing, and then returns the same Instance.
    """
    if mode not in ("strict", "normalize"):
        raise ValidationError(f"unknown mode {mode!r}")
    _check_fields(quiver, m, u)
    work = quiver
    mm = {vid: m[vid] for vid in quiver.vertices}
    uu = {vid: u[vid] for vid in quiver.vertices}
    clamped: list[tuple[str, int, int]] = []
    removed_vertices: list[str] = []
    removed_pages: list[tuple[str, str, int, int]] = []

    while True:
        if not work.arrows:
            raise ValidationError("quiver has no arrows" if work is quiver
                                  else "empty quiver after normalization")
        geom = _derive_geometry(work, mm, uu)
        settled = len(clamped)
        for vid in work.vertices:
            bound = min(geom[vid])  # min(a, b, v)
            if mode == "strict" and not 0 < uu[vid] <= bound:
                raise ValidationError(
                    f"u[{vid!r}] = {uu[vid]} is outside 1..min(a, b, v) = {bound}")
            if uu[vid] > bound:
                clamped.append((vid, uu[vid], bound))
                uu[vid] = bound
        dead = [vid for vid in work.vertices if uu[vid] <= 0]
        if not dead and len(clamped) == settled:
            break
        gone = set(dead)
        removed_pages += [(s, t, mm[t], mm[s]) for s, t in work.arrows if gone & {s, t}]
        work = BipartiteQuiver(tuple(v for v in work.sources if v not in gone),
                               tuple(v for v in work.targets if v not in gone),
                               tuple(a for a in work.arrows if not gone & set(a)))
        removed_vertices += dead
        for vid in dead:
            del mm[vid], uu[vid]

    report = NormalizationReport(tuple(clamped), tuple(removed_vertices), tuple(removed_pages))
    return Instance(work, mm, uu, normalization=report)


def load_instance(source, mode: str = "normalize") -> Instance:
    """Build an Instance from a JSON document (dict, JSON string, or file path).

    Schema: {"sources": [...], "targets": [...], "arrows": [{"from":..,"to":..}, ...],
    "m": {...}, "u": {...}}; the arrow array order defines the page order.  A
    string is JSON text exactly when its first non-blank character is ``{``
    or ``[``; any other string is a file path.
    """
    if isinstance(source, dict):
        obj = source
    else:
        import json

        text = str(source)
        try:
            if text.lstrip()[:1] not in ("{", "["):
                with open(text, "r", encoding="utf-8") as fh:
                    text = fh.read()
            obj = json.loads(text)
        except OSError as exc:
            raise ValidationError(f"cannot read instance file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"instance document is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"instance document must be a JSON object, got {obj!r}")
    try:
        for field in ("sources", "targets", "arrows"):
            if not isinstance(obj[field], list):
                raise ValidationError(f"{field!r} must be a list, got {obj[field]!r}")
        for arrow in obj["arrows"]:
            if not (isinstance(arrow, dict) and "from" in arrow and "to" in arrow):
                raise ValidationError(
                    f"'arrows' entries must be objects with 'from' and 'to', got {arrow!r}")
        for field in ("m", "u"):
            if not isinstance(obj[field], dict):
                raise ValidationError(
                    f"{field!r} must be an object keyed by vertex id, got {obj[field]!r}")
        quiver = BipartiteQuiver(
            tuple(obj["sources"]), tuple(obj["targets"]),
            tuple((a["from"], a["to"]) for a in obj["arrows"]))
        return build_instance(quiver, obj["m"], obj["u"], mode=mode)
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed instance document: {exc}") from exc
