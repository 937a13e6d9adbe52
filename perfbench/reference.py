"""Fixed reference task: its wall time reads the machine's current speed.

It counts the facets of four fixed random instances by brute force, in pure
Python like the package's own hot loops. It does not import ``quiverdet``,
so it does the same work at every commit. ``run.py`` runs it between jobs
and scales each job's wall time by the references run before and after it.
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402

rng = random.Random(3)
print(sum(checks.brute_facet_count(checks.random_instance_doc(rng, size))
          for size in (10, 11, 12, 12)))
