"""Exception types and default guards shared by all quiverdet modules.

The guards live here, beside the errors they raise, so the CLI can build its
parser without importing an engine.
"""

DEFAULT_MAX_CELLS = 32            # |L| guard of the brute-force face DFS
DEFAULT_VDC_GUARD = 14            # |L| guard of the purity spot-checks of vdc-sample
DEFAULT_FACET_CAP = 10_000_000    # facet enumeration stops past this many facets


class QuiverDetError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(QuiverDetError):
    """Invalid input data: malformed quivers, out-of-range cells, bad presets."""


class GuardExceeded(QuiverDetError):
    """A brute-force operation was asked to run past its configured size guard."""


class FacetCapExceeded(QuiverDetError):
    """Facet enumeration grew past the configured cap; fail loudly, not by exhaustion."""


class CrossCheckError(QuiverDetError):
    """Two independent computation routes disagreed.

    This always indicates an implementation bug, never bad user input: the
    routes are mathematically equivalent by construction.
    """
