"""Names the benchmark harness looks up in the package (perfbench/inproc.py, perfbench/run.py).

The traced run wraps each public function below as a span and reads per-layer
metrics from the span counts.  A renamed or moved function would make its
metric read 0 without an error, so these tests fail instead.
"""

import importlib
import inspect

SPANS = {
    "series": ("hilbert_series",),
    "cvm": ("is_cvm", "corners", "road_map", "c_min", "c_max"),
    "moves": ("chutable_moves", "apply_move", "enumerate_facets"),
    "complex": ("f_vector", "interior_faces", "verify_shelling", "codim1_membership",
                "boundary_generator_masks"),
    "verify": ("criteria_agree", "brute_maximal_facet_masks", "verify_instance"),
}

CONSTRUCTORS = {"quiver": ("Instance",), "chains": ("BlockStats", "CellSet")}


def test_traced_functions_exist_in_their_layer():
    for layer, names in SPANS.items():
        module = importlib.import_module(f"quiverdet.{layer}")
        for name in names:
            fn = getattr(module, name)
            assert callable(fn) and not isinstance(fn, type), f"{layer}.{name}"
            # only functions defined in the layer itself are wrapped
            assert fn.__module__ == module.__name__, f"{layer}.{name}"


def test_traced_constructors_exist():
    for layer, names in CONSTRUCTORS.items():
        module = importlib.import_module(f"quiverdet.{layer}")
        for name in names:
            assert isinstance(getattr(module, name), type), f"{layer}.{name}"


def test_face_search_run_signature():
    # the DFS node counter wraps run(visit, *args, **kwargs) and counts visit calls
    from quiverdet.complex import _FaceSearch

    params = list(inspect.signature(_FaceSearch.run).parameters.values())
    assert [p.name for p in params] == ["self", "visit", "universe_mask"]
    assert params[2].default is None


def test_cli_entry_points():
    from quiverdet import cli

    assert callable(cli.main) and callable(cli.parse_preset)


def test_corners_calls_public_road_map_once_per_facet(monkeypatch):
    # the traced cvm.road_map count must keep equal to the cvm.corners count
    from quiverdet import cvm
    from quiverdet.cli import parse_preset
    from quiverdet.moves import enumerate_facets

    calls = []
    real = cvm.road_map

    def counted(cs):
        calls.append(cs)
        return real(cs)

    monkeypatch.setattr(cvm, "road_map", counted)
    facets = enumerate_facets(parse_preset("star-example"))
    for facet in facets:
        cvm.corners(facet)
    assert calls == facets
