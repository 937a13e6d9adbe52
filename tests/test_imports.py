"""The import footprint of a ``quiverdet`` process.

Every CLI run is a fresh process that compiles the package from source when
no bytecode cache is written, so each module a subcommand does not run is
startup cost for nothing.  Each probe runs in a fresh ``python -S`` (no
site-packages imports of its own) with ``PYTHONPATH=src`` and reports the
modules loaded when it is done.
"""

import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import quiverdet

SRC = Path(__file__).resolve().parent.parent / "src"
CORE = {"quiverdet", "quiverdet.cli", "quiverdet.errors", "quiverdet.quiver"}
DEFINITIONS = "quiverdet.definitions"
ORACLES = {"quiverdet.chains", "quiverdet.cvm", "quiverdet.complex", "quiverdet.verify",
           "quiverdet.ideal", DEFINITIONS}
HEAVY = {"dataclasses", "inspect"}

# the public names of the package, as the eager __init__ bound them
PUBLIC = [
    "ALL_ROUTES", "BipartiteQuiver", "CORNER_ROUTES", "Cell", "CellSet", "ChainStats",
    "ChuteMove", "CornerReport", "CrossCheckError", "FOLD_ROUTES", "FaceTable",
    "FacetCapExceeded", "GuardExceeded", "HilbertSeries", "Instance", "MinorSpec", "Monomial",
    "NormalizationReport", "QuiverDetError", "RoadMap", "ShellingReport", "ValidationError",
    "apply_inverse", "apply_move", "brute_maximal_facet_masks", "build_instance", "c_max",
    "c_min", "can_extend", "chains", "check_vertex_decomposition_samples", "chutable_moves",
    "cmp_T", "cmp_T_sets", "codim1_membership", "complex", "corner_stats", "corners",
    "criteria_agree", "cvm", "definitions", "enumerate_facets", "errors", "export_cas", "f_vector",
    "hilbert_series", "ideal", "in_initial_ideal", "initial_cvm", "initial_monomials",
    "interior_faces", "is_cvm", "is_u_compatible", "load_instance", "max_diagonal_chain",
    "moves", "natural_generator_count", "natural_generators", "quiver", "random_instance",
    "reflect", "road_map", "series", "verify", "verify_instance", "verify_shelling",
]


def _probe(body: str) -> set[str]:
    """The modules loaded after running ``body`` in a fresh ``python -S``; it must succeed."""
    script = f"import sys\n{body}\nsys.stderr.write('\\n' + ' '.join(sys.modules))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONOPTIMIZE", None)  # the probes check with assert
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


def _package(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "quiverdet" or m.startswith("quiverdet.")}


def test_bare_package_import_loads_no_submodule():
    assert _package(_probe("import quiverdet")) == {"quiverdet"}


def test_check_command_handlers_load_only_with_their_commands():
    # the counting commands, info and facets compile no check command's
    # handler, and no command runs hilbert_series's oracle routes
    for command in ("info", "facets", "hilbert", "fvector"):
        modules = _probe("from quiverdet.cli import main\n"
                         f"assert main([{command!r}, '--preset', 'det:2,2,1']) == 0")
        assert not modules & {"quiverdet.cli_checks", "quiverdet.oracle_routes"}, command
    for argv in (["shelling", "--preset", "det:2,2,1"], ["vdc-sample", "--preset", "det:2,2,1"],
                 ["verify", "--preset", "det:2,2,1", "--seed", "1"]):
        modules = _probe(f"from quiverdet.cli import main\nassert main({argv!r}) == 0")
        assert "quiverdet.cli_checks" in modules, argv
        assert "quiverdet.oracle_routes" not in modules, argv


def test_cli_import_and_info_load_only_the_core():
    for body in ("import quiverdet.cli",
                 "from quiverdet.cli import main\n"
                 "assert main(['info', '--preset', 'det:1,1,1']) == 0"):
        modules = _probe(body)
        assert _package(modules) == CORE, body
        assert not modules & HEAVY, body


@pytest.mark.parametrize("command, path", [
    ("facets", {"quiverdet.moves"}),
    *((command, {"quiverdet.moves", "quiverdet.series", "quiverdet.bitslice"})
      for command in ("hilbert", "hvector", "multiplicity", "fvector", "interior")),
])
def test_counting_commands_load_only_the_mask_path(command, path):
    # no oracle module is compiled, and json only under --json: h comes from
    # the local routes' addable batches, the face counts off h
    modules = _probe("from quiverdet.cli import main\n"
                     f"assert main([{command!r}, '--preset', 'double:2,3,2,1,1']) == 0")
    assert _package(modules) == CORE | path
    assert not modules & ORACLES and "json" not in modules


def test_facets_json_loads_only_moves():
    # facets formats its JSON itself: the json module stays unloaded too
    modules = _probe("from quiverdet.cli import main\n"
                     "assert main(['facets', '--json', '--preset', 'double:2,3,2,1,1']) == 0")
    assert _package(modules) == CORE | {"quiverdet.moves"}
    assert not modules & ORACLES and "json" not in modules


def test_corners_loads_the_core_and_the_corner_batch():
    modules = _probe("from quiverdet.cli import main\n"
                     "assert main(['corners', '--preset', 'double:2,3,2,1,1']) == 0")
    assert _package(modules) == CORE | {"quiverdet.cli_checks", "quiverdet.moves",
                                        "quiverdet.chains", "quiverdet.cvm", "quiverdet.bitslice"}
    assert "json" not in modules


def test_shelling_does_not_load_verify():
    modules = _probe("from quiverdet.cli import main\n"
                     "assert main(['shelling', '--preset', 'double:2,3,2,1,1']) == 0")
    assert "quiverdet.complex" in modules and "quiverdet.verify" not in modules
    assert DEFINITIONS not in modules


def test_verify_does_not_load_the_cas_exporter():
    modules = _probe("from quiverdet.cli import main\n"
                     "assert main(['verify', '--preset', 'det:2,2,1', '--seed', '1']) == 0")
    assert "quiverdet.verify" in modules and "quiverdet.ideal" not in modules
    assert DEFINITIONS not in modules
    assert not modules & HEAVY


def test_verify_on_instance_files_does_not_load_the_definitions(tmp_path):
    # random instances like the benchmark's `verify --file` jobs; their checks all pass
    from quiverdet.verify import random_instance

    rng = random.Random(5)
    paths = []
    for n in range(6):
        paths.append(tmp_path / f"instance{n}.json")
        paths[-1].write_text(random_instance(rng, 12).to_json(), encoding="utf-8")
    modules = _probe("from quiverdet.cli import main\n"
                     f"for path in {list(map(str, paths))!r}:\n"
                     "    assert main(['verify', '--file', path, '--seed', '1']) == 0, path")
    assert "quiverdet.verify" in modules and DEFINITIONS not in modules


def test_vdc_sample_loads_the_definitions():
    modules = _probe("from quiverdet.cli import main\n"
                     "assert main(['vdc-sample', '--preset', 'det:2,2,1', '--samples', '3',\n"
                     "             '--seed', '1']) == 0")
    assert DEFINITIONS in modules


def test_export_cas_loads_the_minors_path_alone():
    modules = _probe("from quiverdet.cli import main\n"
                     "assert main(['export-cas', '--preset', 'det:2,2,1']) == 0")
    assert _package(modules) == CORE | {"quiverdet.cli_checks", "quiverdet.chains",
                                        "quiverdet.moves", "quiverdet.ideal"}


# a tampered corner batch, as in test_corner_batch.py: facet 6 of star-example
# fails it, and its replay through the road map passes
REPLAY = """\
import quiverdet.cvm as cvm
from quiverdet.cli import parse_preset
from quiverdet.errors import DEFAULT_FACET_CAP, CrossCheckError
from quiverdet.moves import _facet_masks

inst = parse_preset('star-example')
real = cvm._block_levels

def tampered(instance, columns, every):
    for row, levels in real(instance, columns, every):
        for n, _, _ in levels:
            n[1] ^= 1 << 5
        yield row, levels

cvm._block_levels = tampered
counts = cvm._corner_counts(inst, _facet_masks(inst, DEFAULT_FACET_CAP))
for _ in range(5):
    next(counts)
assert 'quiverdet.definitions' not in sys.modules
try:
    next(counts)
except CrossCheckError as exc:
    assert str(exc) == 'the corner batch rejects facet 6, whose road map passes', exc
else:
    raise SystemExit('no CrossCheckError')
"""


def test_corner_batch_loads_the_road_map_only_to_replay():
    assert DEFINITIONS in _probe(REPLAY)


def test_public_names_unchanged():
    assert sorted(quiverdet.__all__) == sorted(PUBLIC)


def test_public_names_resolve_lazily():
    # a fresh process: every name loads through the module __getattr__
    _probe("import quiverdet, importlib\n"
           "for name in quiverdet.__all__:\n"
           "    value = getattr(quiverdet, name)\n"
           "    home = quiverdet._HOME.get(name)\n"
           "    if home is not None:\n"
           "        module = importlib.import_module('quiverdet.' + home)\n"
           "        assert value is getattr(module, name), name\n"
           "    else:\n"
           "        assert value is importlib.import_module('quiverdet.' + name), name\n"
           "namespace = {}\n"
           "exec('from quiverdet import *', namespace)\n"
           "missing = set(quiverdet.__all__) - set(namespace)\n"
           "assert not missing, missing\n"
           "assert set(quiverdet.__all__) <= set(dir(quiverdet))\n"
           "try:\n"
           "    quiverdet.no_such_name\n"
           "except AttributeError:\n"
           "    pass\n"
           "else:\n"
           "    raise SystemExit('no AttributeError')\n")


def test_no_dataclasses_in_package():
    # dataclasses pulls in inspect, ast, dis and tokenize at every process start
    for path in sorted((SRC / "quiverdet").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "dataclasses" for name in names), \
                f"{path.name}:{node.lineno} imports dataclasses"


def test_definitions_is_imported_only_inside_functions():
    # a module-level import would compile the oracles in every process that loads the importer
    for path in sorted((SRC / "quiverdet").glob("*.py")):
        if path.stem == "definitions":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        inside = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            else:
                continue
            if any("definitions" in name.split(".") for name in names):
                assert id(node) in inside, f"{path.name}:{node.lineno} imports definitions"
