"""quiverdet benchmark: timed CLI workloads with correctness gates and a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload enumerate|faces|verify --seed N --seconds S --trace 0|1

Every job is a fresh ``quiverdet`` process, started the way the console
script starts it (default interpreter flags, asserts on), one at a time.
A job counts only if its output passes a gate from ``checks.py``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
jobs in one interpreter with the package's public functions wrapped
(``inproc.py``) and prints the per-layer metrics.  The last stdout line is
the result object; the line before it is the run record (environment and
raw samples).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from checks import GateError  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
HARD_LIMIT_S = 170.0       # every run ends well inside the 180 s allowed
SETUP_REPEATS = 7          # info jobs per run; setup_s is their median
SETUP_ARGV = ("info", "--preset", "det:6,6,3")
RANDOM_SIZES = (8, 9, 10, 11, 12) * 4   # |L| of the random verify instances
ITEMS = {"enumerate": "facets", "faces": "faces", "verify": "instances"}
MEMORY_PRESET = {"enumerate": "double:3,4,3,2,2", "faces": "star-example",
                 "verify": "det:6,6,1"}
# The console script's entry point, spelled out so no installed copy is needed.
# At exit the job writes its peak RSS (VmHWM) to stderr: the ru_maxrss that
# wait4 returns also counts the harness pages the child held before exec.
CONSOLE = ("import sys\n"
           "from quiverdet.cli import main\n"
           "try:\n"
           "    sys.exit(main())\n"
           "finally:\n"
           "    with open('/proc/self/status') as status:\n"
           "        sys.stderr.write(''.join(l for l in status if l.startswith('VmHWM:')))\n")
# The machine's speed drifts by up to 2x over seconds to minutes, and CPU
# time drifts with it. Every timed job is therefore bracketed by runs of
# reference.py, and its wall time is reported at reference speed: scaled by
# REF_S over the median of the four nearest references, two before and two
# after it. REF_S is the reference's wall time on a 2-core Xeon at 2.0 GHz,
# Python 3.11.7.
REF_S = 0.3
REF_EVERY_S = 1.0          # at most this much job time between references
STARTED = time.perf_counter()


@dataclass
class Job:
    argv: tuple[str, ...]
    gate: Callable[[bytes], None]   # raises GateError on a wrong output
    items: int                      # facets, faces or instances the job delivers


def digest_gate(argv, extra=None):
    def gate(out: bytes):
        checks.check_digest(argv, out)
        if extra is not None:
            extra(out)
    return gate


def _expect(what, got, want):
    if got != want:
        raise GateError(f"{what} {got}, reference {want}")


def build_jobs(workload: str, rng: random.Random, work: Path) -> list[Job]:
    golden = checks.load_golden(ROOT)
    if workload == "enumerate":
        facets = ("facets", "--json", "--preset", "double:3,4,3,2,2")
        hilbert = ("hilbert", "--preset", "det:6,6,3")
        mult = checks.gessel_viennot(6, 6, 3)
        return [
            Job(facets, digest_gate(facets), 2796),
            Job(hilbert, digest_gate(hilbert, lambda out: _expect(
                "multiplicity", checks.hilbert_multiplicity(out), mult)), mult),
        ]
    if workload == "faces":
        fvec = ("fvector", "--preset", "det:4,5,2")
        interior = ("interior", "--preset", "star-example")

        def interior_values(out: bytes):
            lines = out.decode("utf-8").splitlines()
            _expect("interior vector", tuple(checks.f_vector_of(out)), golden["STAR_INTERIOR"])
            _expect("interior total", lines[1], f"total {golden['STAR_INTERIOR_TOTAL']}")

        return [
            Job(fvec, digest_gate(fvec, lambda out: _expect(
                "facet count", checks.f_vector_of(out)[-1], checks.gessel_viennot(4, 5, 2))),
                190464),
            Job(interior, digest_gate(interior, interior_values), golden["STAR_F_TOTAL"]),
        ]
    if workload == "verify":
        def star_gate(out: bytes):
            h, mult, _ = checks.verify_report(out)
            _expect("h-vector", tuple(h), golden["STAR_H"])
            _expect("multiplicity", mult, golden["STAR_MULTIPLICITY"])

        det_mult = checks.gessel_viennot(6, 6, 1)
        jobs = [
            Job(("verify", "--preset", "star-example", "--seed", str(rng.randrange(2 ** 30))),
                star_gate, 1),
            Job(("verify", "--preset", "det:6,6,1", "--seed", str(rng.randrange(2 ** 30))),
                lambda out: checks.check_verify_multiplicity(out, det_mult, brute=False), 1),
        ]
        for n, size in enumerate(RANDOM_SIZES):
            doc = checks.random_instance_doc(rng, size)
            path = work / f"instance{n:02d}.json"
            path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
            count = checks.brute_facet_count(doc)
            jobs.append(Job(
                ("verify", "--file", str(path), "--seed", str(rng.randrange(2 ** 30))),
                lambda out, count=count: checks.check_verify_multiplicity(out, count, brute=True),
                1))
        return jobs
    raise SystemExit(f"unknown workload {workload!r}")


# -- processes -----------------------------------------------------------------------

class Timeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise Timeout()


def spawn(argv: list[str], out_path: Path) -> dict:
    """Run one process to completion, stdout and stderr to files; wall time and exit code."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONOPTIMIZE", None)
    budget = HARD_LIMIT_S - (time.perf_counter() - STARTED)
    err_path = out_path.with_suffix(".err")
    out_path.unlink(missing_ok=True)
    err_path.unlink(missing_ok=True)
    if budget <= 1:
        return {"wall_s": 0.0, "code": None, "timeout": True}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        _, status = os.waitpid(proc.pid, 0)
        wall = time.perf_counter() - t0
    except BaseException as exc:    # the alarm, or an interrupt: stop the child first
        proc.kill()
        os.waitpid(proc.pid, 0)
        proc.returncode = -9
        if not isinstance(exc, Timeout):
            raise
        return {"wall_s": time.perf_counter() - t0, "code": None, "timeout": True}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "code": proc.returncode, "timeout": False}


class Runner:
    """Runs and gates jobs, keeping every sample and the failure tally."""

    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.refs: list[float] = []     # wall times of the reference task, in run order
        self._since_ref = 0.0

    def reference(self):
        """Run the reference task; its wall time reads the machine's current speed."""
        sample = spawn([sys.executable, str(HERE / "reference.py")], self.work / "stdout")
        if sample["code"] != 0:
            self.fail(f"reference task: exit code {sample['code']}")
        self.refs.append(sample["wall_s"] if sample["code"] == 0 else REF_S)
        self._since_ref = 0.0

    def bracket(self, sample: dict) -> dict:
        """Tie a timed sample to the references before and after it."""
        sample["ref"] = len(self.refs) - 1
        self._since_ref += sample["wall_s"]
        if self._since_ref >= REF_EVERY_S:
            self.reference()
        return sample

    def close(self):
        if self._since_ref > 0:
            self.reference()

    def speed_factor(self, sample: dict) -> float:
        """REF_S over the median of the four references nearest the sample."""
        b = sample["ref"]   # the sample ran between references b and b + 1
        return REF_S / statistics.median(self.refs[max(b - 1, 0):b + 3])

    def fail(self, message: str):
        """Count a check that ran outside any job, and its failure."""
        self.attempted += 1
        self.failures.append(message)

    def gate(self, label, code, out: bytes, gate) -> bool:
        self.attempted += 1
        try:
            if code != 0:
                raise GateError(f"exit code {code}")
            gate(out)
        except (GateError, ValueError, IndexError, KeyError, UnicodeDecodeError) as exc:
            self.failures.append(f"{label}: {exc}")
            return False
        return True

    def cli(self, job: Job) -> dict:
        out_path = self.work / "stdout"
        sample = spawn([sys.executable, "-c", CONSOLE, *job.argv], out_path)
        out = out_path.read_bytes() if out_path.exists() else b""
        err_path = out_path.with_suffix(".err")
        err = err_path.read_bytes() if err_path.exists() else b""
        hwm = re.search(rb"^VmHWM:\s*(\d+) kB", err, re.M)
        sample["rss_kb"] = int(hwm.group(1)) if hwm else 0
        sample["ok"] = self.gate(" ".join(job.argv), sample["code"], out, job.gate)
        return sample

    def inproc(self, request: dict) -> dict | None:
        req_path, res_path = self.work / "request.json", self.work / "result.json"
        req_path.write_text(json.dumps(dict(request, src=str(SRC))), encoding="utf-8")
        res_path.unlink(missing_ok=True)
        sample = spawn([sys.executable, str(HERE / "inproc.py"), str(req_path), str(res_path)],
                       self.work / "stdout")
        if sample["code"] != 0 or not res_path.exists():
            self.fail(f"in-process {request['mode']} run: exit code {sample['code']}")
            return None
        return json.loads(res_path.read_text(encoding="utf-8"))


def out_of_time() -> bool:
    return time.perf_counter() - STARTED > HARD_LIMIT_S - 5


# -- end-to-end run ----------------------------------------------------------------

def end_to_end(runner: Runner, jobs: list[Job], rng: random.Random, seconds: float):
    # setup jobs are spread evenly over the run, so that their median spans
    # the same slow and fast phases of the machine as the measured jobs
    setup_job = Job(SETUP_ARGV, digest_gate(SETUP_ARGV), 0)
    setup: list[dict] = []
    samples: list[list[dict]] = [[] for _ in jobs]
    runner.reference()
    start = time.perf_counter()
    done = False
    while not done:
        for n in rng.sample(range(len(jobs)), len(jobs)):
            now = time.perf_counter()
            if (now >= start + seconds and all(samples)) or out_of_time():
                done = True
                break
            if len(setup) < SETUP_REPEATS and now >= start + len(setup) * seconds / SETUP_REPEATS:
                setup.append(runner.bracket(runner.cli(setup_job)))
            samples[n].append(runner.bracket(runner.cli(jobs[n])))
    while len(setup) < SETUP_REPEATS and not out_of_time():
        setup.append(runner.bracket(runner.cli(setup_job)))
    runner.close()
    if not all(samples) or not setup:
        runner.fail("out of time before every job ran")
        return {}, {}
    for sample in setup + [s for js in samples for s in js]:
        sample["scaled_s"] = sample["wall_s"] * runner.speed_factor(sample)
    wall = sum(statistics.median(s["scaled_s"] for s in js) for js in samples)
    items = sum(job.items for job in jobs)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(s["scaled_s"] for s in setup), "s"),
        "items_per_s": (items / wall, "1/s"),
        "peak_rss_mb": (max(s["rss_kb"] for js in samples for s in js) / 1024, "MB"),
    }
    raw = {"unscaled_wall_s": sum(statistics.median(s["wall_s"] for s in js) for js in samples),
           "references_s": runner.refs, "setup": setup,
           "jobs": [{"argv": list(job.argv), "samples": js} for job, js in zip(jobs, samples)]}
    return metrics, raw


# -- traced run --------------------------------------------------------------------

# Counts that are a pure function of the inputs: they must repeat exactly.
EXACT = ("quiver.instances", "chains.cellset_new", "chains.block_stats", "cvm.is_cvm",
         "cvm.corners", "cvm.road_map", "cvm.closure", "moves.scan", "moves.generated",
         "moves.facets", "moves.useful_ratio", "complex.dfs_nodes", "complex.boundary_gens",
         "complex.shelling_pairs", "complex.codim1")


def layer_metrics(result: dict) -> dict[str, float]:
    spans, ctr = result["spans"], result["counters"]

    def count(*names):
        return sum(spans.get(n, (0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(spans.get(n, (0, 0.0))[1] for n in names)

    layer = {n.split(".")[0]: [] for n in spans}
    for n in spans:
        layer[n.split(".")[0]].append(n)
    facets_calls = count("moves.enumerate_facets")
    generated = ctr["moves_generated"]
    return {
        "quiver.build_s": self_s(*layer.get("quiver", ())),
        "quiver.instances": count("quiver.Instance"),
        "chains.cellset_new": count("chains.CellSet"),
        "chains.block_stats": count("chains.BlockStats"),
        "chains.block_stats_s": self_s("chains.BlockStats"),
        "cvm.is_cvm": count("cvm.is_cvm"),
        "cvm.is_cvm_s": self_s("cvm.is_cvm"),
        "cvm.corners": count("cvm.corners"),
        "cvm.corners_s": self_s("cvm.corners"),
        "cvm.road_map": count("cvm.road_map"),
        "cvm.closure": count("cvm.c_min", "cvm.c_max"),
        "cvm.closure_s": self_s("cvm.c_min", "cvm.c_max"),
        "moves.scan": count("moves.chutable_moves"),
        "moves.scan_s": self_s("moves.chutable_moves"),
        "moves.generated": generated,
        "moves.apply_s": self_s("moves.apply_move"),
        "moves.facets": ctr["facets"],
        "moves.useful_ratio": (ctr["facets"] - facets_calls) / generated if generated else 0.0,
        "complex.dfs_nodes": ctr["dfs_nodes"],
        "complex.fvector_s": self_s("complex.f_vector"),
        "complex.interior_s": self_s("complex.interior_faces"),
        "complex.boundary_gens": ctr["boundary_gens"],
        "complex.shelling_s": self_s("complex.verify_shelling"),
        "complex.shelling_pairs": ctr["shelling_pairs"],
        "complex.codim1": count("complex.codim1_membership"),
        "series.hilbert_s": self_s("series.hilbert_series"),
        "verify.criteria_s": self_s("verify.criteria_agree"),
        "verify.brute_s": self_s("verify.brute_maximal_facet_masks"),
        "verify.self_s": self_s("verify.verify_instance"),
        "cli.self_s": self_s(*layer.get("cli", ())),
    }


UNITS = {"moves.useful_ratio": "ratio", "moves.bytes_per_facet": "B",
         "trace.overhead_s": "s"}


def traced(runner: Runner, jobs: list[Job], workload: str, seconds: float):
    argvs = [list(job.argv) for job in jobs]

    def replay(mode: str):
        result = runner.inproc({"mode": mode, "jobs": argvs})
        if result is None:
            return None
        for job, ran in zip(jobs, result["jobs"]):
            runner.gate(f"{mode}: {' '.join(job.argv)}", ran["code"],
                        ran["stdout"].encode("utf-8"), job.gate)
            del ran["stdout"]
        result["wall_s"] = sum(j["wall_s"] for j in result["jobs"])
        return runner.bracket(result)

    deadline = time.perf_counter() + seconds
    runner.reference()
    plain = replay("plain")
    rounds = []
    while len(rounds) < 2 or (time.perf_counter() < deadline and not out_of_time()):
        result = replay("trace")
        if result is None or out_of_time():
            break
        rounds.append(result)
    runner.close()
    memory = runner.inproc({"mode": "memory", "preset": MEMORY_PRESET[workload]})
    if plain is None or len(rounds) < 2 or memory is None:
        runner.fail("traced run incomplete")
        return {}, {}
    per_round = []
    for r in rounds:
        factor = runner.speed_factor(r)
        per_round.append({name: value * factor if name.endswith("_s") else value
                          for name, value in layer_metrics(r).items()})
    drifted = {name: sorted({m[name] for m in per_round}) for name in EXACT
               if len({m[name] for m in per_round}) != 1}
    runner.attempted += 1
    if drifted:
        runner.failures.append(f"counts drifted between traced rounds: {drifted}")
    metrics = {name: (statistics.median(m[name] for m in per_round),
                      UNITS.get(name, "s" if name.endswith("_s") else "count"))
               for name in per_round[0]}
    metrics["moves.bytes_per_facet"] = (memory["memory"]["bytes_per_facet"], "B")
    traced_wall = statistics.median(r["wall_s"] * runner.speed_factor(r) for r in rounds)
    metrics["trace.overhead_s"] = (traced_wall - plain["wall_s"] * runner.speed_factor(plain), "s")
    raw = {"plain_wall_s": plain["wall_s"], "traced_wall_s": [r["wall_s"] for r in rounds],
           "references_s": runner.refs,
           "spans": [r["spans"] for r in rounds], "counters": [r["counters"] for r in rounds],
           "memory": memory["memory"]}
    return metrics, raw


# -- record ------------------------------------------------------------------------

def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("enumerate", "faces", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in (SRC / "quiverdet" / "cli.py", ROOT / "tests" / "golden.py"):
        if not needed.is_file():
            print(f"error: {needed} not found; run from the root of a quiverdet checkout",
                  file=sys.stderr)
            return 2

    load_before = os.getloadavg()
    rng = random.Random(args.seed)
    (HERE / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=HERE / "_work"))
    try:
        runner = Runner(work)
        jobs = build_jobs(args.workload, rng, work)
        if args.trace:
            metrics, raw = traced(runner, jobs, args.workload, args.seconds)
        else:
            metrics, raw = end_to_end(runner, jobs, rng, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload, "items": ITEMS[args.workload], "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_sha": git_sha(), "optimize": sys.flags.optimize,
        "job_flags": "default interpreter flags (asserts on)",
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "failures": runner.failures, "raw": raw,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not runner.failures and bool(metrics),
        "attempted": max(runner.attempted, 1),
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
