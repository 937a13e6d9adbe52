import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import quiverdet
from quiverdet import CellSet, enumerate_facets, is_cvm
from quiverdet.cli import main, parse_preset

from golden import DOUBLE_H, DOUBLE_MULTIPLICITY


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info(capsys):
    code, out, _ = run_cli(capsys, "info", "--preset", "double:2,3,2,1,1")
    assert code == 0
    assert "|L| = 12" in out and "N = 5" in out


def test_facets_json_round_trip(capsys, double_instance):
    code, out, _ = run_cli(capsys, "facets", "--preset", "double:2,3,2,1,1", "--json")
    assert code == 0
    triples = json.loads(out)
    assert len(triples) == DOUBLE_MULTIPLICITY
    for entry in triples:
        facet = CellSet.from_triples(double_instance, entry)
        assert is_cvm(facet)
        assert entry == facet.to_triples()  # emitted ascending


@pytest.mark.parametrize("preset", ["det:1,1,1", "double:2,3,2,1,1", "star-example"])
def test_facets_json_is_json_dumps(capsys, preset):
    # the fragment writer must print exactly what the standard encoder would
    code, out, _ = run_cli(capsys, "facets", "--json", "--preset", preset)
    facets = enumerate_facets(parse_preset(preset))
    assert code == 0
    assert out == json.dumps([f.to_triples() for f in facets], indent=2, sort_keys=True) + "\n"


def test_facets_text_order(capsys):
    code, out, _ = run_cli(capsys, "facets", "--preset", "double:2,3,2,1,1")
    lines = out.strip().splitlines()
    assert len(lines) == 12
    assert lines[-1].split()[0] == "3,2,1"  # the initial facet comes last


def test_multiplicity_and_hvector(capsys):
    code, out, _ = run_cli(capsys, "multiplicity", "--preset", "double:2,3,2,1,1")
    assert code == 0 and out.strip() == "12"
    code, out, _ = run_cli(capsys, "hvector", "--preset", "double:2,3,2,1,1")
    assert code == 0 and out.strip() == " ".join(map(str, DOUBLE_H))


def test_hilbert_star(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "--preset", "star-example")
    assert code == 0
    assert out.strip() == "(1+7t+19t^2+19t^3+7t^4+t^5)/(1-t)^11"


def test_fvector_and_interior(capsys):
    code, out, _ = run_cli(capsys, "fvector", "--preset", "double:2,3,2,1,1")
    assert code == 0 and out.splitlines()[0] == "1 12 42 64 45 12"
    code, out, _ = run_cli(capsys, "interior", "--preset", "double:2,3,2,1,1", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["interior_vector"] == [0, 0, 0, 4, 15, 12]
    assert obj["interior_total"] == 31


def test_fvector_honours_facet_cap(capsys):
    # fvector reads its counts off the facets, so the facet cap applies
    code, _, err = run_cli(capsys, "fvector", "--preset", "det:4,5,2", "--facet-cap", "49")
    assert code == 1 and "more than 49 facets" in err
    code, out, _ = run_cli(capsys, "fvector", "--preset", "det:4,5,2", "--facet-cap", "50")
    counts, total = out.splitlines()
    assert code == 0 and total == "total 190464"
    # Gessel-Viennot: det[C(m + n - i - j, m - i)] over 1 <= i, j <= u, for m, n, u = 4, 5, 2
    paths = [[comb(9 - i - j, 4 - i) for j in (1, 2)] for i in (1, 2)]
    assert int(counts.split()[-1]) == paths[0][0] * paths[1][1] - paths[0][1] * paths[1][0] == 50


def test_shelling_and_corners(capsys):
    code, out, _ = run_cli(capsys, "shelling", "--preset", "det:3,3,2")
    assert code == 0 and "shelling ok" in out
    code, out, _ = run_cli(capsys, "corners", "--preset", "det:3,3,2", "--json")
    rows = json.loads(out)
    # the hypersurface case: h = (1, 1, 1), so one facet per corner count
    assert [r["essential_se"] for r in rows] == [0, 1, 2]


def test_vdc_sample(capsys):
    code, out, _ = run_cli(capsys, "vdc-sample", "--preset", "double:2,3,2,1,1",
                           "--samples", "8", "--seed", "5")
    assert code == 0 and "all pure" in out


def test_export_cas(capsys, tmp_path):
    out_path = tmp_path / "check.m2"
    code, _, _ = run_cli(capsys, "export-cas", "--preset", "det:2,2,1",
                         "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().startswith("-- generated by quiverdet")
    code, out, _ = run_cli(capsys, "export-cas", "--preset", "det:2,2,1",
                           "--flavor", "singular")
    assert code == 0 and out.startswith("// generated by quiverdet")


def test_verify_smallest_classical(capsys):
    code, out, _ = run_cli(capsys, "verify", "--preset", "det:2,2,1", "--seed", "1")
    assert code == 0
    assert "all checks passed" in out


def test_verify_max_cells_reaches_series_oracle(capsys):
    # |L| = 33: over the default guard, inside --max-cells, so the series
    # routes that need the face DFS must run under the raised guard too
    code, out, _ = run_cli(capsys, "verify", "--preset", "det:3,11,1", "--max-cells", "33",
                           "--trials", "10", "--seed", "1")
    assert code == 0, out
    assert "[ok] series-routes: h = " in out and "all checks passed" in out


def test_verify_random(capsys):
    code, out, _ = run_cli(capsys, "verify", "--random", "3", "--seed", "11",
                           "--trials", "100")
    assert code == 0 and "3 instance(s)" in out


@pytest.mark.parametrize("argv", [("verify", "--preset", "det:2,2,1", "--trials", "-5"),
                                  ("verify", "--random", "-1"),
                                  ("vdc-sample", "--preset", "det:2,2,1", "--samples", "-2"),
                                  ("export-cas", "--preset", "det:2,2,1", "--generator-cap", "-1")])
def test_negative_counts_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert f"{argv[-2]} must not be negative" in err


def test_file_input(capsys, tmp_path, star_instance):
    path = tmp_path / "star.json"
    path.write_text(star_instance.to_json())
    code, out, _ = run_cli(capsys, "multiplicity", "--file", str(path))
    assert code == 0 and out.strip() == "54"


def test_error_paths(capsys):
    code, _, err = run_cli(capsys, "info", "--preset", "bogus:1")
    assert code == 1 and "error:" in err
    code, _, err = run_cli(capsys, "info", "--file", "/no/such/file.json")
    assert code == 1 and "cannot read" in err
    code, _, err = run_cli(capsys, "info", "--file", __file__)  # not JSON
    assert code == 1 and "error:" in err
    code, _, err = run_cli(capsys, "fvector", "--preset", "star-example",
                           "--max-cells", "4")
    assert code == 1 and "guard" in err
    code, _, err = run_cli(capsys, "verify")
    assert code == 1
    code, _, err = run_cli(capsys, "info", "--preset", "det:5,5,9", "--strict")
    assert code == 1
    code, out, _ = run_cli(capsys, "info", "--preset", "det:5,5,9")
    assert code == 0  # normalize mode clamps instead


def test_strict_flag_vs_normalize(capsys):
    code, out, _ = run_cli(capsys, "info", "--preset", "det:5,5,9", "--json")
    obj = json.loads(out)
    assert obj["u"] == {"1": 5, "2": 5}
    assert obj["normalization"]["clamped"]


def test_parse_preset_det(det33):
    assert parse_preset("det:3,3,2") == det33


def test_no_asserts_in_package():
    # -O strips assert statements and __debug__ blocks; with none in the
    # package, a default run and a -O run are the same program
    import ast

    for path in sorted(Path(quiverdet.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            assert not isinstance(node, ast.Assert), f"{path.name}:{node.lineno} asserts"
            assert not (isinstance(node, ast.Name) and node.id == "__debug__"), \
                f"{path.name}:{node.lineno} reads __debug__"


@pytest.mark.parametrize("argv", [("corners", "--json", "--preset", "star-example"),
                                  ("shelling", "--json", "--preset", "double:2,3,2,1,1"),
                                  ("fvector", "--preset", "det:3,4,2"),
                                  ("interior", "--preset", "star-example"),
                                  ("verify", "--preset", "star-example", "--seed", "7"),
                                  ("verify", "--random", "3", "--seed", "11")])
def test_stdout_same_under_optimize(argv):
    # the self-check asserts that -O strips must not change what a run prints
    env = dict(os.environ, PYTHONPATH=str(Path(quiverdet.__file__).resolve().parents[1]))
    outs = [subprocess.run([sys.executable, *flags, "-m", "quiverdet", *argv], env=env,
                           capture_output=True, check=True).stdout
            for flags in ((), ("-O",))]
    assert outs[0] and outs[0] == outs[1]
