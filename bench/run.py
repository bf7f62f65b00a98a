"""atseg benchmark: four segmentation workloads, timed end to end or traced per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads below, or "all" to run each in turn in its own
process.  With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it wraps the package's public functions with spans and reports the
per-layer metrics.  Commands run in this process through atseg.cli.main, one
after another, after one untimed warm-up command; every command's outputs are
checked.  Peak RSS comes from one more command run in a fresh interpreter,
and set-up time from fresh interpreters, run between the timed commands,
that only make and read the input (bench/rss_probe.py,
bench/setup_probe.py).  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Spans and a full record of the run are written under bench/_work/.
"""

from __future__ import annotations

import os

# Cap BLAS threads at the cores this process may use, before numpy loads.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tomllib  # noqa: E402
import traceback  # noqa: E402
import dataclasses  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

# Fresh interpreters timed for setup_s after each timed command.  One takes
# about 0.8 s.  On a shared machine the speed of a core drifts by up to 1.5x
# for tens of seconds at a time, so the probes are spread over the whole
# timed loop, where they see the same stretch of machine as the commands,
# and setup_s is the median of all of them.
SETUP_PER_COMMAND = 2
EPS_LIST = (0.06, 0.03, 0.015)
# Noise seed of the noisy phantoms.  The workloads are defined on this one
# realization: over noise seeds 1-10, noisy-default takes 67 to 160 outer
# iterations and noisy-cg 9 to 11 (3.2 to 4.6 s), spreads wider than any
# bound a timing can be held to, so --seed does not change the inputs.
PHANTOM_SEED = 12


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark input (a 128x128 phantom) and the command run on it."""

    kind: str
    sigma: float
    command: str
    flags: tuple[str, ...]
    deterministic: bool = False
    midpoints: bool = False

    @property
    def phantom(self) -> tuple[str, float, int]:
        return self.kind, self.sigma, PHANTOM_SEED

    def argv(self, inp: Path, out: Path) -> list[str]:
        if self.command == "segment":
            return ["segment", str(inp), "--output-dir", str(out), *self.flags]
        return ["sweep", str(inp), "--eps-list", ",".join(map(repr, EPS_LIST)),
                "--output", str(out / "sweep.csv"), *self.flags]


LAPLACIAN = ("--model", "laplacian")
WORKLOADS = {
    # Factorization-bound: 22 outer iterations of splu.  --solver direct
    # promises bit-identical reruns, which every repetition checks.  Not in
    # BENCHMARK.json: on a shared 2-vCPU VM its per-run median moved between
    # 4.1 and 6.0 s for minutes at a time, and its wall_s spread over ten runs
    # reached 0.29, past the largest bound allowed.  sweep covers the direct path.
    "clean-direct": Workload("circles", 0.0, "segment", LAPLACIAN + ("--eps", "3e-2", "--solver", "direct"),
                             deterministic=True, midpoints=True),
    # CG-iteration-bound, 10 outer iterations, weights that do not collapse v.
    "noisy-cg": Workload("circles", 0.1, "segment",
                         LAPLACIAN + ("--eps", "3e-2", "--intensity-scale", "1", "--alpha", "0.1", "--gamma", "100"),
                         midpoints=True),
    # The default invocation: per-iteration overhead over 75 outer iterations,
    # and a collapsed edge field.
    "noisy-default": Workload("circles", 0.1, "segment", ()),
    # The only path through cmd_sweep and gagliardo_ratio: three cold starts.
    "sweep": Workload("oned", 0.0, "sweep", LAPLACIAN + ("--solver", "direct"), deterministic=True),
}

# Layers each workload must call in a traced command.
_CORE_LAYERS = {"cli.main", "altmin.run", "altmin.indicator", "linsolve.assemble_v", "linsolve.assemble_u",
                "linsolve.solve_v", "linsolve.solve_u", "energy.total", "grid.ops", "imgio.read"}
REQUIRED_LAYERS = {
    "segment": _CORE_LAYERS | {"imgio.write", "edges.mask"},
    "sweep": _CORE_LAYERS | {"energy.gagliardo"},
}

# Printed with the end-to-end metrics but not declared in BENCHMARK.json:
# edge quality exists only where a run writes v, and fail_frac is 0 when all
# is well (the result line carries it as attempted/failed).
INFO_UNITS = {"edge_dist_px": "px", "midpoint_err_px": "px", "fail_frac": "1"}


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


sys.path.insert(0, str(SRC))
try:
    import atseg  # noqa: E402
except ImportError:
    sys.exit("bench: atseg sources not found under src/; run from the root of a checkout")
if Path(atseg.__file__).resolve().parent != (SRC / "atseg").resolve():
    sys.exit(f"bench: imported atseg from {atseg.__file__}, not from {SRC}")

import numpy  # noqa: E402
import scipy  # noqa: E402
from atseg import cli  # noqa: E402

import checks  # noqa: E402
import setup_probe  # noqa: E402
import spans  # noqa: E402


def git_commit() -> str:
    """HEAD of the checkout; "unknown" outside a git checkout or without git."""
    # The ceiling keeps git from finding a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, env=env)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance() -> dict:
    try:
        with open(ROOT / "pyproject.toml", "rb") as f:
            version = tomllib.load(f)["project"]["version"]
    except (OSError, KeyError, tomllib.TOMLDecodeError):
        version = "unknown"
    return {"atseg": version, "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(), "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": NPROC, "git_commit": git_commit()}


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def quiet(fn, *args):
    """Call fn with stdout and stderr captured; returns (result, captured text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        return fn(*args), buf.getvalue()


class Runner:
    """Runs one workload's commands, checks each, and keeps the figures."""

    def __init__(self, name: str, seed: int, trace: bool):
        self.name, self.wl = name, WORKLOADS[name]
        self.work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.inp = self.work / "input.f64"
        self.out = self.work / "out"
        self.out.mkdir()
        self.truth = None
        self.reference = None
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.figures: dict[str, list] = {k: [] for k in ("outer_iters", "final_energy", "edge_dist_px",
                                                           "midpoint_err_px")}

    def make_input(self, tracer=None) -> int | None:
        """Write the phantom and keep its ground truth; returns the root span when traced."""
        if tracer is None:
            self.truth, root = setup_probe.write_input(self.inp, *self.wl.phantom), None
        else:
            self.truth, root = tracer.call("bench.input", setup_probe.write_input, self.inp, *self.wl.phantom)
        return root

    def command(self, tracer=None) -> tuple[float, int | None]:
        """Run, time and check one command; returns (wall seconds, root span or None)."""
        argv = self.wl.argv(self.inp, self.out)
        root = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc, text = quiet(cli.main, argv)
            else:
                (rc, root), text = quiet(tracer.call, "cli.main", cli.main, argv)
        except Exception:  # a crash is a failed command; the run goes on and reports it
            rc, text = "exception", traceback.format_exc()
        wall = time.perf_counter() - t0
        self._finish(rc, text)
        return wall, root

    def command_in_child(self) -> float | None:
        """Run and check one command in a fresh interpreter; returns its peak RSS in MiB."""
        proc = subprocess.run([sys.executable, str(BENCH / "rss_probe.py"), *self.wl.argv(self.inp, self.out)],
                              capture_output=True, text=True)
        ok = self._finish(proc.returncode, proc.stderr)
        return int(proc.stdout.split()[-1]) / 1024.0 if ok else None

    def _finish(self, rc, text: str) -> bool:
        """Count one command and check its outputs; returns whether it passed."""
        self.attempted += 1
        try:
            if rc != 0:
                raise checks.CheckFailed(f"exit code {rc}: {text.strip()[-300:]}")
            self._check()
        except checks.CheckFailed as exc:
            self.failed += 1
            self.problems.append(f"command {self.attempted}: {exc}")
            return False
        return True

    def _check(self) -> None:
        if self.wl.command == "segment":
            facts = checks.check_segment(self.out)
            artifacts = [(self.out / f).read_bytes() for f in ("v.f64", "history.csv")]
            self.figures["edge_dist_px"].append(checks.edge_dist_px(facts["v"], self.truth))
            if self.wl.midpoints:
                self.figures["midpoint_err_px"].append(checks.midpoint_err_px(facts["v"], self.truth))
        else:
            facts = checks.check_sweep(self.out / "sweep.csv", EPS_LIST)
            artifacts = [(self.out / "sweep.csv").read_bytes()]
        self.figures["outer_iters"].append(facts["outer_iters"])
        self.figures["final_energy"].append(facts["final_energy"])
        if self.wl.deterministic:
            if self.reference is None:
                self.reference = artifacts
            elif artifacts != self.reference:
                raise checks.CheckFailed("--solver direct rerun is not byte-identical to the first run")

    def median_figure(self, key: str):
        vals = self.figures[key]
        if not vals or any(v is None for v in vals):
            return None
        return statistics.median(vals)


def measure_setup(runner: Runner, repeats: int) -> list[float]:
    """Wall times of fresh interpreters running setup_probe.py."""
    probe = runner.work / "probe.f64"
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), str(probe),
                               *map(str, runner.wl.phantom)], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed: {proc.stderr.strip()[-500:]}")
    return times


def run_e2e(runner: Runner, seconds: float) -> tuple[dict, dict]:
    runner.make_input()
    peak_rss_mb = runner.command_in_child()
    runner.command()  # warm-up: fills the operator caches; checked, not timed
    walls, setup = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        walls.append(runner.command()[0])
        setup += measure_setup(runner, SETUP_PER_COMMAND)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "outer_iters": runner.median_figure("outer_iters"),
        "peak_rss_mb": peak_rss_mb,
        "final_energy": runner.median_figure("final_energy"),
    }
    info = {
        "edge_dist_px": runner.median_figure("edge_dist_px"),
        "midpoint_err_px": runner.median_figure("midpoint_err_px"),
        "fail_frac": runner.failed / runner.attempted,
        "wall_samples": walls,
        "wall_tail": tail(walls),
        "setup_samples": setup,
    }
    return metrics, info


def run_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    tracer = spans.Tracer()
    tracer.install()
    try:
        input_root = runner.make_input(tracer)
    finally:
        tracer.uninstall()
    _, input_self, input_calls = spans.command_metrics(tracer.spans, input_root)

    runner.command()  # warm-up, untraced
    plain, traced, per_command, self_times = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        if len(plain) <= len(traced):
            plain.append(runner.command()[0])
            continue
        tracer.install()
        try:
            wall, root = runner.command(tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        if root is None:  # the command raised; it is counted as failed
            continue
        metrics, self_time, calls = spans.command_metrics(tracer.spans, root)
        missing = REQUIRED_LAYERS[runner.wl.command] - {k for k, v in calls.items() if v}
        if missing:
            raise SystemExit(f"bench: workload {runner.name} recorded no calls to {sorted(missing)}")
        per_command.append(metrics)
        self_times.append(self_time)
    if not input_calls.get("synth.generate") or not input_calls.get("imgio.write"):
        raise SystemExit("bench: making the input recorded no synth.generate or imgio.write calls")

    tracer.write(runner.work / "spans.jsonl")
    if not per_command:
        raise SystemExit(f"bench: every traced command failed: {runner.problems}")
    metrics = {k: statistics.median(m[k] for m in per_command) for k in per_command[0]}
    metrics["synth.generate_s"] = input_self["synth.generate"]
    metrics["trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    ranking = sorted(((statistics.median(s.get(k, 0.0) for s in self_times), k)
                      for k in set().union(*self_times)), reverse=True)
    info = {"fail_frac": runner.failed / runner.attempted, "traced_walls": traced, "untraced_walls": plain,
            "self_time_ranking": [[k, v] for v, k in ranking]}
    return metrics, info


def fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def run_one(args) -> int:
    runner = Runner(args.workload, args.seed, bool(args.trace))
    prov = provenance()
    print(f"# atseg benchmark workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# provenance {json.dumps(prov, sort_keys=True)}")
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if args.trace:
        metrics, info = run_traced(runner, args.seconds)
        for k in units:
            print(f"{k:32s} {fmt(metrics[k]):>14s} {units[k]}")
        print("# self time per command, largest first:")
        for k, v in info["self_time_ranking"][:8]:
            print(f"#   {k:30s} {v:.4f} s")
        print(f"# altmin span coverage {metrics['altmin.span_coverage']:.4f}")
    else:
        metrics, info = run_e2e(runner, args.seconds)
        for k in units:
            print(f"{k:16s} {fmt(metrics[k]):>14s} {units[k]}")
        for k in INFO_UNITS:
            print(f"{k:16s} {fmt(info[k]):>14s} {INFO_UNITS[k]}  (reported, not gated)")
        n = len(info["wall_samples"])
        tl = info["wall_tail"]
        tail_text = f"p{tl[0]:.0f} {tl[1]:.6g} s" if tl else "no percentile has ten samples above it"
        print(f"# wall_s: median of {n} commands; {tail_text}")
        print(f"# setup_s: median of {len(info['setup_samples'])} fresh interpreters; "
              "peak_rss_mb: one command in a fresh interpreter")
    for p in runner.problems:
        print(f"# FAILED {p}")

    if set(metrics) != set(units):
        raise SystemExit(f"bench: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    correct = runner.failed == 0
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "phantom": runner.wl.phantom, "truth": dataclasses.asdict(runner.truth), "provenance": prov,
              "metrics": metrics, "info": info, "problems": runner.problems}
    (runner.work / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    result = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        try:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            raise SystemExit(f"bench: workload {name} printed no result (exit code {proc.returncode})")
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0,
                   help="run label; recorded, but the inputs are fixed (see PHANTOM_SEED)")
    p.add_argument("--seconds", type=float, default=25.0, help="how long the timed loop runs")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0, help="1: per-layer traced run")
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
