import json
import os
import subprocess
import sys
from itertools import combinations, permutations
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


# in these two tests det:6,6,3 (|L| = 36) has masks wider than 32 bits
@pytest.mark.parametrize("preset", ["det:1,1,1", "double:2,3,2,1,1", "star-example",
                                    "det:6,6,3"])
def test_facets_json_is_json_dumps(capsys, preset):
    # the fragment writer must print exactly what the standard encoder would
    code, out, _ = run_cli(capsys, "facets", "--json", "--preset", preset)
    facets = enumerate_facets(parse_preset(preset))
    assert code == 0
    expected = json.dumps([f.to_triples() for f in facets], indent=2, sort_keys=True) + "\n"
    # line lists: on a mismatch pytest names the first wrong line at once, where
    # its diff of two long strings took minutes
    assert out.splitlines(keepends=True) == expected.splitlines(keepends=True)


@pytest.mark.parametrize("preset", ["det:1,1,1", "double:2,3,2,1,1", "star-example", "det:3,3,2",
                                    "det:6,6,3"])
def test_facets_text_is_cell_lines(capsys, preset):
    # one line per facet: its cells as i,j,k in lattice order, separated by spaces
    code, out, _ = run_cli(capsys, "facets", "--preset", preset)
    facets = enumerate_facets(parse_preset(preset))
    assert code == 0
    assert out == "".join(" ".join(",".join(map(str, c)) for c in f.cells) + "\n"
                          for f in facets)


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_facets_over_the_cap_prints_nothing(capsys, flags):
    # the cap fires before the first facet is written: no partial list
    code, out, err = run_cli(capsys, "facets", *flags, "--preset", "double:2,3,2,1,1",
                             "--facet-cap", "11")
    assert code == 1 and out == ""
    assert err.startswith("error: more than 11 facets; stopped with 11 found")


def test_facets_streams_its_output(tmp_path, monkeypatch):
    # facets writes each facet as it is formatted, so the traced peak is a
    # fraction of the output; holding the whole text would exceed it
    import tracemalloc

    path = tmp_path / "facets.json"
    with open(path, "w", encoding="utf-8") as fh:
        monkeypatch.setattr(sys, "stdout", fh)
        tracemalloc.start()
        try:
            code = main(["facets", "--json", "--preset", "det:6,6,3"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    written = path.stat().st_size
    assert code == 0 and len(json.loads(path.read_text(encoding="utf-8"))) == 980
    assert peak < written / 2, (peak, written)


class _Writes(list):
    """A stdout that keeps each write."""

    def write(self, text):
        self.append(text)


@pytest.mark.parametrize("flags", [(), ("--json",)])
@pytest.mark.parametrize("preset, chunk, writes", [
    ("double:2,3,2,1,1", 1, 13), ("double:2,3,2,1,1", 12, 2),  # 12 facets: every chunk full
    ("det:6,6,3", None, 17),  # 980 = 15 * 64 + 20: a partial last chunk
])
def test_facets_writes_in_chunks(monkeypatch, flags, preset, chunk, writes):
    # each write holds a chunk of facets, the last one the closing text;
    # the output is the same as that of the whole-list tests above
    import quiverdet.cli as cli

    if chunk is not None:
        monkeypatch.setattr(cli, "_CHUNK", chunk)
    out = _Writes()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["facets", *flags, "--preset", preset]) == 0
    facets = enumerate_facets(parse_preset(preset))
    if flags:
        expected = json.dumps([f.to_triples() for f in facets], indent=2, sort_keys=True) + "\n"
    else:
        expected = "".join(" ".join(",".join(map(str, c)) for c in f.cells) + "\n" for f in facets)
    assert len(out) == writes and "".join(out) == expected


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_facets_exits_quietly_on_a_closed_pipe(unbuffered):
    # the reader takes one line and closes the pipe, as `| head -1` does; the
    # rest of det:7,7,3's 24696 facets (about 1.3 MB) cannot fit in a pipe buffer
    env = dict(os.environ, PYTHONPATH=str(Path(quiverdet.__file__).resolve().parents[1]),
               PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen([sys.executable, "-m", "quiverdet", "facets", "--preset", "det:7,7,3"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1 and err == b""
    assert first.startswith(b"1,1,1 1,2,1 ") and first.endswith(b" 7,3,1\n")


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


@pytest.mark.parametrize("command", ["hilbert", "hvector", "multiplicity"])
def test_series_commands_honour_facet_cap(capsys, command):
    # the series commands fold the capped facet masks: the error is that of facets
    argv = ("--preset", "det:4,5,2", "--facet-cap", "49")
    _, _, expected = run_cli(capsys, "facets", *argv)
    assert expected.startswith("error: more than 49 facets; stopped with 49 found")
    code, out, err = run_cli(capsys, command, *argv)
    assert (code, out, err) == (1, "", expected)


COMMANDS = ("info", "facets", "multiplicity", "hvector", "hilbert", "fvector", "interior",
            "shelling", "corners", "vdc-sample", "export-cas", "verify")


def _parse(capsys, parse, argv):
    try:
        parse(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", [["--help"], ["bogus"], ["facets", "--bogus"],
                                  ["verify", "--samples", "3"], ["hilbert", "--max-cells", "x"],
                                  *([command, "--help"] for command in COMMANDS),
                                  ["--bogus", "info"]])
def test_one_subcommand_parser_reads_as_the_full_one(capsys, monkeypatch, argv):
    # main builds only the named subcommand's options; help, usage and errors must not change
    from quiverdet.cli import build_parser

    monkeypatch.setenv("COLUMNS", "100")
    full = _parse(capsys, build_parser().parse_args, argv)
    assert full[0] == (0 if "--help" in argv else 2)
    assert _parse(capsys, main, argv) == full
    if argv == ["bogus"]:  # the full parser names the argument, not a metavar
        assert "argument command" in full[2]


# Per subcommand, the options its handler reads besides --preset, --file and --strict.
HANDLER_OPTIONS = {
    "info": {"--json"},
    **{command: {"--json", "--facet-cap"}
       for command in ("facets", "multiplicity", "hvector", "hilbert", "fvector", "interior",
                       "shelling", "corners")},
    "vdc-sample": {"--json", "--max-cells", "--seed", "--samples"},
    "export-cas": {"--flavor", "--out", "--generator-cap"},
    "verify": {"--json", "--max-cells", "--facet-cap", "--seed", "--random", "--trials"},
}


@pytest.mark.parametrize("argv", [["hilbert", "--seed", "1"], ["facets", "--max-cells", "5"],
                                  ["info", "--facet-cap", "3"], ["export-cas", "--json"]])
def test_subcommands_reject_options_their_handlers_ignore(capsys, argv):
    code, out, err = _parse(capsys, main, [*argv, "--preset", "det:2,2,1"])
    assert (code, out) == (2, "") and "unrecognized arguments" in err


@pytest.mark.parametrize("command", COMMANDS)
def test_preset_and_file_together_are_a_usage_error(capsys, tmp_path, command):
    # neither source silently wins, whether or not the file exists
    path = tmp_path / "det.json"
    path.write_text(parse_preset("det:2,2,1").to_json())
    for file in (str(path), str(tmp_path / "missing.json")):
        for argv in ([command, "--preset", "det:2,2,1", "--file", file],
                     [command, "--file", file, "--preset", "det:2,2,1"]):
            code, out, err = _parse(capsys, main, argv)
            assert (code, out) == (2, "") and "not allowed with argument" in err, argv


@pytest.mark.parametrize("command", COMMANDS)
def test_subcommands_take_the_options_their_handlers_read(capsys, command):
    import re

    code, usage, _ = _parse(capsys, main, [command, "--help"])
    assert code == 0
    listed = set(re.findall(r"--[a-z-]+", usage.split("options:")[0]))
    assert listed == {"--preset", "--file", "--strict"} | HANDLER_OPTIONS[command]


def _gessel_viennot(m, n, u):
    """det[C(m + n - i - j, m - i)] over 1 <= i, j <= u, by the Leibniz formula."""
    total = 0
    for perm in permutations(range(1, u + 1)):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        term = (-1) ** inversions
        for i, j in enumerate(perm, start=1):
            term *= comb(m + n - i - j, m - i)
        total += term
    return total


def test_fvector_and_interior_past_the_brute_guard(capsys):
    # |L| = 36 > the default --max-cells 32: no face DFS runs, so no guard applies
    code, out, _ = run_cli(capsys, "fvector", "--preset", "det:6,6,3")
    assert code == 0
    assert int(out.splitlines()[0].split()[-1]) == _gessel_viennot(6, 6, 3) == 980
    code, out, _ = run_cli(capsys, "interior", "--preset", "det:6,6,3")
    assert code == 0
    # every facet is interior, so the top interior count is the multiplicity too
    assert int(out.splitlines()[0].split()[-1]) == 980


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


def test_vdc_sample_guard_defaults_to_the_library_guard(capsys):
    # |L| = 18 is over the spot-check guard 14, not over verify's 32
    code, _, err = run_cli(capsys, "vdc-sample", "--preset", "star-example")
    assert code == 1 and "guard" in err
    code, out, _ = run_cli(capsys, "vdc-sample", "--preset", "star-example",
                           "--max-cells", "18", "--samples", "3")
    assert code == 0 and "all pure" in out


def test_export_cas(capsys, tmp_path):
    out_path = tmp_path / "check.m2"
    code, _, _ = run_cli(capsys, "export-cas", "--preset", "det:2,2,1",
                         "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().startswith(f"-- generated by quiverdet {quiverdet.__version__};")
    code, out, _ = run_cli(capsys, "export-cas", "--preset", "det:2,2,1",
                           "--flavor", "singular")
    assert code == 0 and out.startswith(f"// generated by quiverdet {quiverdet.__version__};")


def test_package_version_matches_pyproject():
    # read by regex: tomllib is missing on Python 3.10
    import re

    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert found and found.group(1) == quiverdet.__version__


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
    code, _, err = run_cli(capsys, "vdc-sample", "--preset", "star-example",
                           "--max-cells", "4")
    assert code == 1 and "guard" in err
    code, _, err = run_cli(capsys, "verify")
    assert code == 1
    code, _, err = run_cli(capsys, "info", "--preset", "det:5,5,9", "--strict")
    assert code == 1
    code, out, _ = run_cli(capsys, "info", "--preset", "det:5,5,9")
    assert code == 0  # normalize mode clamps instead


@pytest.mark.parametrize("sources, arrow_from, named", [([1], 1, "1"), ([["a"]], "a", "['a']")])
def test_non_string_vertex_ids_fail_cleanly(capsys, tmp_path, sources, arrow_from, named):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"sources": sources, "targets": ["t"],
                                "arrows": [{"from": arrow_from, "to": "t"}],
                                "m": {"1": 2, "a": 2, "t": 2}, "u": {"1": 1, "a": 1, "t": 1}}))
    code, out, err = run_cli(capsys, "info", "--file", str(path))
    assert code == 1 and out == ""
    assert err == f"error: vertex id {named} is not a string\n"


@pytest.mark.parametrize("argv", [("info", "--preset", "det:99999999999,1,1"),
                                  ("facets", "--preset", "det:3000,3000,2"),
                                  ("hilbert", "--preset", "double:99999999999,1,1,1,1"),
                                  ("info", "--file", "huge.json")])
def test_oversized_instances_fail_cleanly(tmp_path, argv):
    # the size guards fire before any cell is built: under a 1 GiB
    # address-space limit the run ends in one error line, not a MemoryError
    import resource

    (tmp_path / "huge.json").write_text(json.dumps(
        {"sources": ["s"], "targets": ["t"], "arrows": [{"from": "s", "to": "t"}],
         "m": {"s": 10 ** 20, "t": 1}, "u": {"s": 1, "t": 1}}))
    env = dict(os.environ, PYTHONPATH=str(Path(quiverdet.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "quiverdet", *argv], cwd=tmp_path, env=env, capture_output=True,
        timeout=60, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)))
    assert proc.returncode == 1 and proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "supported" in lines[0], lines


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


@pytest.mark.parametrize("argv, digest", [
    (("verify", "--preset", "star-example", "--seed", "7"),
     "4ab95cd2754028198363bd95fd7fdb91452f67f891cb9394b2ef7c2105d4ddac"),
    (("verify", "--preset", "det:6,6,1", "--seed", "3"),
     "d45a1e0151ff4f0148d9abbab904841a7e2733be9aefeba7f0d39e2ffd170d4c"),
    (("verify", "--json", "--preset", "det:3,3,2"),
     "2f28878da9ea7eef36f859162f2ca90f310f5a7f9d4b9c3be9ee1ed03610aabc"),
    (("verify", "--random", "5", "--seed", "11"),
     "604e2604b85308b3598200e9051d568beab11b4c309fc62500783b578f0da3c8"),
])
def test_verify_output_is_byte_stable(capsys, argv, digest):
    # pinned SHA-256 of stdout: every check, detail string and count of these
    # runs stays as it is, whatever kernel computes them
    import hashlib

    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
