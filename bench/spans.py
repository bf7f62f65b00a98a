"""Span tracer for the traced benchmark run.

Wraps public functions of the atseg modules from the benchmark's side, keeps
one span (name, start, end, parent, attributes) per call in memory, tags each
solve with the assembler that built its system, and derives per-layer metrics
and self times from the spans of one CLI command.  Nothing inside the package
is changed; the wrappers are installed for a traced command and removed after.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# (module, attribute, span name).  Calls are caught where the caller looks
# them up: altmin imports the assemblers, solve and total_energy by name, and
# energy/linsolve import the grid operators by name.
TARGETS = (
    ("atseg.altmin", "run", "altmin.run"),
    ("atseg.altmin", "convergence_indicator", "altmin.indicator"),
    ("atseg.altmin", "assemble_v_system_first_order", "linsolve.assemble_v"),
    ("atseg.altmin", "assemble_v_system_second_order", "linsolve.assemble_v"),
    ("atseg.altmin", "assemble_u_system", "linsolve.assemble_u"),
    ("atseg.altmin", "solve", "linsolve.solve"),
    ("atseg.altmin", "total_energy", "energy.total"),
    ("atseg.cli", "gagliardo_ratio", "energy.gagliardo"),
    ("atseg.energy", "grad_forward", "grid.ops"),
    ("atseg.energy", "laplacian", "grid.ops"),
    ("atseg.linsolve", "grad_forward", "grid.ops"),
    ("atseg.imgio", "read_pgm", "imgio.read"),
    ("atseg.imgio", "read_f64", "imgio.read"),
    ("atseg.imgio", "write_pgm", "imgio.write"),
    ("atseg.imgio", "write_mask_pgm", "imgio.write"),
    ("atseg.imgio", "write_f64", "imgio.write"),
    ("atseg.imgio", "write_history", "imgio.write"),
    ("atseg.edges", "level_mask", "edges.mask"),
    ("atseg.synth", "generate", "synth.generate"),
    # Counted, not timed (no span name): a sparse LU factorization inside a
    # solve marks that solve as direct.
    ("atseg.linsolve", "splu", None),
)

ASSEMBLER_KIND = {"linsolve.assemble_v": "v", "linsolve.assemble_u": "u"}


def resolve_targets() -> list[tuple[object, str, str | None]]:
    """(module, attribute, span name) for every target; fails loudly on a missing name."""
    out = []
    for modname, attr, name in TARGETS:
        mod = importlib.import_module(modname)
        if not callable(getattr(mod, attr, None)):
            raise SystemExit(f"bench: traced name {modname}.{attr} no longer exists")
        out.append((mod, attr, name))
    return out


class Tracer:
    """In-memory spans of traced calls; spans[i] = [name, start, end, parent, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._tags: dict[int, str] = {}
        self._factorizations = 0
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for mod, attr, name in resolve_targets():
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._count_factorization(fn) if name is None else self._wrap(fn, name))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _open(self, name: str, attrs: dict) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name; returns (result, span index)."""
        rec = self._open(name, {})
        index = len(self.spans) - 1
        try:
            return fn(*args, **kwargs), index
        finally:
            self._close(rec)

    def _count_factorization(self, fn):
        def wrapper(*args, **kwargs):
            self._factorizations += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, fn, name: str):
        def wrapper(*args, **kwargs):
            attrs = {}
            span_name = name
            if name == "linsolve.solve":
                system = args[0] if args else kwargs["sys"]
                span_name = f"linsolve.solve_{self._tags.pop(id(system), 'untagged')}"
                lu_before = self._factorizations
            rec = self._open(span_name, attrs)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if name in ASSEMBLER_KIND:
                self._tags[id(out)] = ASSEMBLER_KIND[name]
            elif name == "linsolve.solve":
                attrs.update(
                    iterations=out.iterations,
                    converged=bool(out.converged),
                    nnz=int(system.matrix.nnz),
                    n=int(system.matrix.shape[0]),
                    index_bytes=int(system.matrix.tocsr().indices.itemsize),
                    direct=self._factorizations > lu_before,
                )
            elif name == "imgio.write":
                attrs["bytes"] = len(out[0] if isinstance(out, tuple) else out)
            return out

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, attrs in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, **attrs}) + "\n")


def cg_work(n: int, nnz: int, iterations: int, index_bytes: int) -> tuple[int, int]:
    """Computed (not measured) flops and bytes of a Jacobi-CG solve in linsolve.

    Per iteration: one CSR product (2 flops per nonzero; values, column
    indices, row pointers, x and y moved once) and seven length-n vector
    operations (p.Ap, two updates, the residual norm, the Jacobi scaling, r.z
    and the direction update: 13 flops and 17 float64 transfers per entry).
    The starting residual costs one more product.
    """
    spmv_flops = 2 * nnz
    spmv_bytes = nnz * (8 + index_bytes) + (n + 1) * index_bytes + 2 * 8 * n
    flops = (iterations + 1) * spmv_flops + iterations * 13 * n
    nbytes = (iterations + 1) * spmv_bytes + iterations * 17 * 8 * n
    return flops, nbytes


def command_metrics(spans: list[list], root: int) -> tuple[dict, dict, dict]:
    """Per-layer metrics, and self times and call counts by span name, for the
    command rooted at spans[root].

    Spans are appended in call order, so a command's spans are the contiguous
    block from its root to the end of the list.
    """
    block = range(root, len(spans))
    child = defaultdict(float)
    for i in block:
        parent = spans[i][3]
        if parent is not None:
            child[parent] += spans[i][2] - spans[i][1]
    total = defaultdict(float)
    calls = defaultdict(int)
    self_time = defaultdict(float)
    for i in block:
        name, start, end = spans[i][:3]
        total[name] += end - start
        calls[name] += 1
        self_time[name] += end - start - child[i]

    solves = [spans[i] for i in block if spans[i][0].startswith("linsolve.solve_")]
    if calls["linsolve.solve_untagged"]:
        raise SystemExit("bench: a solve ran on a system no traced assembler built")
    flops = nbytes = 0
    for _, _, _, _, a in solves:
        if not a["direct"]:
            f, b = cg_work(a["n"], a["nnz"], a["iterations"], a["index_bytes"])
            flops, nbytes = flops + f, nbytes + b

    def nnz(kind):
        return max((a["nnz"] for s, *_, a in solves if s == f"linsolve.solve_{kind}"), default=0)

    def iters(kind):
        return sum(a["iterations"] for s, *_, a in solves if s == f"linsolve.solve_{kind}")

    run_s = total["altmin.run"]
    metrics = {
        "linsolve.solve_v_s": total["linsolve.solve_v"],
        "linsolve.solve_v_iters": iters("v"),
        "linsolve.solve_u_s": total["linsolve.solve_u"],
        "linsolve.solve_u_iters": iters("u"),
        "linsolve.assemble_u_s": total["linsolve.assemble_u"],
        "linsolve.assemble_v_s": total["linsolve.assemble_v"],
        "linsolve.solve_calls": len(solves),
        "linsolve.solve_unconverged": sum(not a["converged"] for *_, a in solves),
        "linsolve.factorizations": sum(a["direct"] for *_, a in solves),
        "linsolve.v_nnz": nnz("v"),
        "linsolve.u_nnz": nnz("u"),
        "linsolve.cg_flops_computed": flops,
        "linsolve.cg_bytes_computed": nbytes,
        "altmin.run_s": run_s,
        "altmin.self_s": self_time["altmin.run"],
        "altmin.span_coverage": 1.0 - self_time["altmin.run"] / run_s if run_s > 0 else 0.0,
        "altmin.indicator_s": total["altmin.indicator"],
        "altmin.outer_iters": calls["altmin.indicator"],
        "energy.total_s": total["energy.total"],
        "energy.total_calls": calls["energy.total"],
        "energy.gagliardo_s": total["energy.gagliardo"],
        "grid.ops_s": total["grid.ops"],
        "grid.ops_calls": calls["grid.ops"],
        "imgio.read_s": total["imgio.read"],
        "imgio.write_s": total["imgio.write"],
        "imgio.bytes_written": sum(spans[i][4].get("bytes", 0) for i in block),
        "edges.mask_s": total["edges.mask"],
        "cli.self_s": self_time["cli.main"],
    }
    return metrics, dict(self_time), dict(calls)
