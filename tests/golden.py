"""Reference values for the worked examples, frozen for regression testing.

Facet lists are given in *descending* set order (largest facet first, i.e.
the reverse of the enumeration output); corner-count sequences follow the
same descending order.
"""

# double:2,3,2,1,1 -------------------------------------------------------------

DOUBLE_N = 5
DOUBLE_SIZE = 12
DOUBLE_MULTIPLICITY = 12
DOUBLE_F_VECTOR = (1, 12, 42, 64, 45, 12)
DOUBLE_F_TOTAL = 176
DOUBLE_INTERIOR = (0, 0, 0, 4, 15, 12)
DOUBLE_INTERIOR_TOTAL = 31
DOUBLE_H = (1, 7, 4)

DOUBLE_FACETS_DESC = [
    {(3, 2, 1), (3, 1, 2), (1, 2, 2), (2, 2, 2), (3, 2, 2)},
    {(3, 2, 1), (3, 1, 2), (2, 1, 2), (2, 2, 2), (1, 2, 2)},
    {(3, 2, 1), (3, 1, 2), (2, 1, 2), (1, 1, 2), (1, 2, 2)},
    {(3, 1, 1), (3, 2, 1), (3, 1, 2), (2, 1, 2), (1, 1, 2)},
    {(3, 2, 1), (2, 2, 1), (2, 1, 2), (2, 2, 2), (1, 2, 2)},
    {(3, 2, 1), (2, 2, 1), (2, 1, 2), (1, 1, 2), (1, 2, 2)},
    {(3, 1, 1), (3, 2, 1), (2, 2, 1), (2, 1, 2), (1, 1, 2)},
    {(3, 1, 1), (2, 1, 1), (2, 2, 1), (2, 1, 2), (1, 1, 2)},
    {(3, 2, 1), (2, 2, 1), (1, 2, 1), (1, 1, 2), (1, 2, 2)},
    {(3, 1, 1), (3, 2, 1), (2, 2, 1), (1, 2, 1), (1, 1, 2)},
    {(3, 1, 1), (2, 1, 1), (2, 2, 1), (1, 2, 1), (1, 1, 2)},
    {(3, 1, 1), (2, 1, 1), (1, 1, 1), (1, 2, 1), (1, 1, 2)},
]
# Corner counts per facet, in the same descending order as the facet list.
DOUBLE_SE_COUNTS_DESC = (1, 2, 2, 1, 1, 2, 2, 1, 1, 1, 1, 0)
DOUBLE_NW_COUNTS_DESC = (0, 1, 1, 1, 1, 2, 2, 1, 1, 2, 2, 1)

# The count sequences are conventionally listed with the facets displayed in
# two rows of six, labeled (1,2,3,4,7,8) and (5,6,9,10,11,12); this is that
# row-major permutation of the descending order, and the sequences below are
# the corner counts read off in it.
DOUBLE_PANEL_LAYOUT = (0, 1, 2, 3, 6, 7, 4, 5, 8, 9, 10, 11)
DOUBLE_SE_COUNTS_LAYOUT = (1, 2, 2, 1, 2, 1, 1, 2, 1, 1, 1, 0)
DOUBLE_NW_COUNTS_LAYOUT = (0, 1, 1, 1, 2, 1, 1, 2, 1, 2, 2, 1)

DOUBLE_INITIAL = DOUBLE_FACETS_DESC[0]
DOUBLE_FINAL = DOUBLE_FACETS_DESC[-1]

# star 2->1, 3->1, 4->1 with m=(3,2,2,2), u=(2,1,1,1) ----------------------------

STAR_N = 11
STAR_SIZE = 18
STAR_MULTIPLICITY = 54
STAR_F_VECTOR = (1, 18, 144, 670, 2013, 4110, 5837, 5784, 3930, 1748, 459, 54)
STAR_F_TOTAL = 24768
STAR_INTERIOR = (0, 0, 0, 0, 0, 0, 1, 12, 57, 128, 135, 54)
STAR_INTERIOR_TOTAL = 387
STAR_H = (1, 7, 19, 19, 7, 1)

STAR_INITIAL = {
    (3, 1, 1), (3, 2, 1), (2, 2, 1),
    (3, 1, 2), (3, 2, 2), (2, 2, 2), (1, 2, 2),
    (3, 1, 3), (3, 2, 3), (2, 2, 3), (1, 2, 3),
}

# one specific star facet with its full road map (block coordinates, SW -> NE)
STAR_DRAWN_FACET = {
    (3, 1, 1), (2, 1, 1), (2, 2, 1),
    (3, 1, 2), (3, 2, 2), (2, 2, 2), (1, 2, 2),
    (3, 1, 3), (2, 1, 3), (2, 2, 3), (1, 2, 3),
}
STAR_DRAWN_H = [
    [(2, 1), (2, 2), (2, 3), (2, 4), (1, 4), (1, 5), (1, 6)],
    [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (2, 5), (2, 6)],
]
STAR_DRAWN_V = {
    "2": [[(3, 1), (2, 1), (2, 2), (1, 2)]],
    "3": [[(3, 1), (3, 2), (2, 2), (1, 2)]],
    "4": [[(3, 1), (2, 1), (2, 2), (1, 2)]],
}

# det:3,3,2 ----------------------------------------------------------------------

DET33_N = 8
DET33_FACET_HOLES = [(1, 1, 1), (2, 2, 1), (3, 3, 1)]  # each facet is L minus one hole

# road map of the facet missing (1,1): paths listed SW -> NE
DET33_ROADMAP_H = [
    [(2, 1), (2, 2), (1, 2), (1, 3)],
    [(3, 1), (3, 2), (3, 3), (2, 3)],
]
DET33_ROADMAP_V = [
    [(3, 1), (2, 1), (2, 2), (1, 2)],
    [(3, 2), (3, 3), (2, 3), (1, 3)],
]

# the 180-degree rotation -----------------------------------------------------------


def rotation(instance):
    """The paper's rotation of L, per cell: (i, j, k) -> (rows + 1 - i, cols + 1 - j, r + 1 - k).

    The image cells lie on the instance with its arrow order reversed; ``cvm.reflect``
    computes the same map as a reversal of the cell ranks.
    """
    from quiverdet.quiver import Cell

    r = len(instance.arrows)
    return {c: Cell(instance.arrow(c.k).rows + 1 - c.i, instance.arrow(c.k).cols + 1 - c.j,
                    r + 1 - c.k) for c in instance.cells}
