"""Command-line interface: segment, synth, profile, sweep, energy subcommands.

Exit codes: 0 success (segment, sweep: converged), 1 error, 2 segment or
some sweep run hit the iteration cap (output files are still written).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import altmin, edges, imgio, linsolve, profile1d, synth
from .energy import BoundaryKind, ModelKind, ModelParams, gagliardo_ratio, total_energy
from .errors import AtsegError, DegenerateInputError
from .grid import ScalarField

PROFILE_D_VALUES = (0.0, 0.25, 0.5, 0.75, 1.0)


def _add_model_flags(p: argparse.ArgumentParser, eps: bool = True) -> None:
    p.add_argument("--model", choices=[k.value for k in ModelKind], default=ModelParams.model.value,
                   help="first-order (at) or second-order (laplacian) edge penalty")
    p.add_argument("--alpha", type=float, default=1e-2, help="gradient coupling weight")
    p.add_argument("--beta", type=float, default=0.3, help="edge-set weight")
    p.add_argument("--gamma", type=float, default=1e-3, help="data fidelity weight")
    if eps:  # sweep takes its eps values from --eps-list
        p.add_argument("--eps", type=float, default=3e-2, help="edge width parameter")
    p.add_argument("--eta", type=float, default=None,
                   help="gradient perturbation weight (default: eps^2)")
    p.add_argument("--intensity-scale", type=float, default=255.0,
                   help="intensity range alpha/gamma are quoted for (255 = 8-bit convention)")


def _add_run_flags(p: argparse.ArgumentParser, eps: bool = True) -> None:
    _add_model_flags(p, eps)
    p.add_argument("--bc", choices=[k.value for k in BoundaryKind], default=ModelParams.bc.value,
                   help="boundary handling for the second-order edge system")
    p.add_argument("--tol", type=float, default=1e-4, help="stop when e_k drops below this")
    p.add_argument("--maxit", type=int, default=500, help="outer iteration cap")
    p.add_argument("--solver", choices=linsolve.SOLVER_METHODS, default=linsolve.SOLVER_METHODS[0],
                   help="inner linear solver: preconditioned CG, or sparse LU for bit-identical reruns")


def _params(args, eps: float) -> ModelParams:
    return ModelParams(
        alpha=args.alpha,
        beta=args.beta,
        gamma=args.gamma,
        eps=eps,
        eta=args.eta,
        model=ModelKind(args.model),
        bc=BoundaryKind(args.bc),
        intensity_scale=args.intensity_scale,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="atseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="segment a PGM image")
    p.add_argument("input", type=Path, help="input PGM (P2 or P5)")
    p.add_argument("--output-dir", type=Path, default=Path("."),
                   help="directory for u.pgm, v.pgm, v.f64, mask.pgm, history.csv")
    p.add_argument("--threshold", type=float, default=edges.DEFAULT_THRESHOLD,
                   help="level-set threshold for mask.pgm")
    p.add_argument("--maxval", type=int, default=255, help="maxval of written PGMs")
    _add_run_flags(p)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("synth", help="write a synthetic phantom and its ground truth")
    p.add_argument("output", type=Path, help="output PGM path (sidecar written alongside)")
    p.add_argument("--kind", choices=[k.value for k in synth.PhantomKind], default="oned")
    p.add_argument("--nx", type=int, default=128)
    p.add_argument("--ny", type=int, default=128)
    p.add_argument("--contrast", type=float, default=0.8)
    p.add_argument("--sigma", type=float, default=0.1, help="additive Gaussian noise level")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--edge-fraction", type=float, default=0.5)
    p.add_argument("--maxval", type=int, default=255)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("profile", help="emit the 1D optimal transition profile and its constants")
    p.add_argument("--output", type=Path, default=None, help="CSV of (t, f(t)); stdout when omitted")
    p.add_argument("--tmax", type=float, default=50.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.set_defaults(func=cmd_profile)

    # No abbreviations: --eps would otherwise be read as --eps-list.
    p = sub.add_parser("sweep", help="run segment over a descending list of eps values", allow_abbrev=False)
    p.add_argument("input", type=Path)
    p.add_argument("--eps-list", type=str, required=True,
                   help="comma-separated descending eps values (at least two)")
    p.add_argument("--output", type=Path, default=None, help="CSV output; stdout when omitted")
    _add_run_flags(p, eps=False)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("energy", help="print the energy breakdown for given fields")
    p.add_argument("input", type=Path, help="data image g (PGM)")
    p.add_argument("--u", type=Path, default=None, help="clean image u (PGM or .f64); default g")
    p.add_argument("--v", type=Path, default=None, help="edge field v (PGM or .f64); default 1")
    _add_model_flags(p)
    p.set_defaults(func=cmd_energy, bc=ModelParams.bc.value)  # total_energy does not read bc

    return parser


def _read_field(path: Path) -> ScalarField:
    data = path.read_bytes()
    if data[:4] == imgio.F64_MAGIC:
        return imgio.read_f64(data)
    return imgio.read_pgm(data)


def cmd_segment(args) -> int:
    imgio.check_maxval(args.maxval)
    edges.check_threshold(args.threshold)
    g = _read_field(args.input)
    params = _params(args, args.eps)
    altmin.check_arguments(g, params, args.tol, args.maxit)  # a run that cannot start writes nothing
    outdir = args.output_dir
    outdir.mkdir(parents=True, exist_ok=True)  # an unusable directory fails before the solve
    for name in ("u.pgm", "v.pgm", "v.f64", "mask.pgm", "history.csv"):  # so does an unwritable file
        open(outdir / name, "ab").close()  # "ab" truncates nothing
    result = altmin.run(g, params, tol=args.tol, maxit=args.maxit, solver=args.solver)

    (outdir / "u.pgm").write_bytes(imgio.write_pgm(result.u, args.maxval)[0])
    v_bytes, clamped = imgio.write_pgm(result.v, args.maxval)
    (outdir / "v.pgm").write_bytes(v_bytes)
    if clamped:
        print(f"v.pgm: clamped {clamped} values outside [0, 1]", file=sys.stderr)
    (outdir / "v.f64").write_bytes(imgio.write_f64(result.v))
    mask = edges.level_mask(result.v, args.threshold)
    (outdir / "mask.pgm").write_bytes(imgio.write_mask_pgm(mask.bits, g.grid.nx, g.grid.ny))
    if mask.count() == 0:  # as for the at model at the default threshold: its v stays <= 1
        print(f"mask.pgm: empty, no value of v above threshold {args.threshold}", file=sys.stderr)
    low = float(np.mean(result.v.values < 0.5))
    if low >= 0.5:  # a print, not a warning: warnings may be errors (-W error)
        print(f"v: collapsed edge field, v < 0.5 on {low:.1%} of the pixels", file=sys.stderr)
    (outdir / "history.csv").write_bytes(imgio.write_history(result.report))

    last = result.report.entries[-1]
    print(f"iterations={result.report.iterations} e_k={last.e_k:.3e} total={last.breakdown.total:.6e}")
    return 0 if result.report.converged else 2


def cmd_synth(args) -> int:
    spec = synth.PhantomSpec(
        kind=synth.PhantomKind(args.kind),
        nx=args.nx,
        ny=args.ny,
        contrast=args.contrast,
        noise_sigma=args.sigma,
        seed=args.seed,
        edge_fraction=args.edge_fraction,
    )
    g, truth = synth.generate(spec)
    comment = f"kind={spec.kind.value} seed={spec.seed} sigma={spec.noise_sigma} rng={synth.RNG_NAME}"
    data, _ = imgio.write_pgm(g, args.maxval, comment=comment)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_bytes(data)
    sidecar = {
        "kind": spec.kind.value,
        "nx": spec.nx,
        "ny": spec.ny,
        "contrast": spec.contrast,
        "noise_sigma": spec.noise_sigma,
        "seed": spec.seed,
        "rng": synth.RNG_NAME,
        "ground_truth": {"type": type(truth).__name__, **asdict(truth)},
    }
    args.output.with_suffix(args.output.suffix + ".json").write_text(
        json.dumps(sidecar, sort_keys=True, indent=2) + "\n"
    )
    print(f"wrote {args.output}")
    return 0


def cmd_profile(args) -> int:
    rows = []  # every value is computed before anything is written
    for d in PROFILE_D_VALUES:
        f = profile1d.sample_closed_form(args.tmax, args.step, d)
        quad = profile1d.profile_energy(f, args.step)
        if d == 0.0:
            profile, m_quad = f, quad
        disc = profile1d.discrete_transition_minimum(d)
        exact = profile1d.SQRT2 * (d - 1.0) ** 2
        rows.append(f"{d:.2f}, {quad:.7f}, {disc:.7f}, {exact:.7f}")
    t = np.arange(profile.size) * args.step
    lines = ["t,f"] + [f"{ti:.17g},{fi:.17g}" for ti, fi in zip(t, profile)]
    csv = "\n".join(lines) + "\n"
    if args.output is not None:
        args.output.write_bytes(csv.encode("ascii"))
    else:
        sys.stdout.write(csv)

    print(f"m (quadrature of closed form) = {m_quad:.7f}")
    print("d, m_d (quadrature), m_d (discrete minimizer), sqrt(2)*(d-1)^2")
    print("\n".join(rows))
    return 0


def _eps_value(entry: str) -> float:
    try:
        return float(entry)
    except ValueError:
        raise AtsegError(f"--eps-list entry {entry.strip()!r} is not a number") from None


def cmd_sweep(args) -> int:
    eps_values = [_eps_value(s) for s in args.eps_list.split(",") if s.strip()]
    if len(eps_values) < 2:
        raise AtsegError("sweep needs at least two eps values")
    if any(b >= a for a, b in zip(eps_values, eps_values[1:])):
        raise AtsegError("eps values must be strictly descending")

    runs = [_params(args, eps) for eps in eps_values]  # reject a bad eps before any output

    g = _read_field(args.input)
    altmin.check_arguments(g, runs[0], args.tol, args.maxit)  # tol, maxit and gamma do not vary with eps
    capped = False
    out = open(args.output, "w") if args.output is not None else sys.stdout
    try:
        out.write("eps,min_total,mm_at_convergence,gagliardo_ratio,iterations\n")
        out.flush()
        for params in runs:
            result = altmin.run(g, params, tol=args.tol, maxit=args.maxit, solver=args.solver)
            last = result.report.entries[-1]
            try:
                ratio = gagliardo_ratio(result.v, params)
            except DegenerateInputError:  # v within rounding of 1
                ratio = float("nan")
            out.write(
                f"{params.eps:.17g},{last.breakdown.total:.17g},{last.breakdown.mm:.17g},"
                f"{ratio:.17g},{result.report.iterations}\n"
            )
            out.flush()
            if not result.report.converged:
                capped = True
                print(f"eps={params.eps:g}: hit the iteration cap --maxit {args.maxit}", file=sys.stderr)
    finally:
        if args.output is not None:
            out.close()
    return 2 if capped else 0


def cmd_energy(args) -> int:
    g = _read_field(args.input)
    u = _read_field(args.u) if args.u is not None else g
    v = _read_field(args.v) if args.v is not None else ScalarField.constant(g.grid, 1.0)
    params = _params(args, args.eps)
    b = total_energy(u, v, g, params)
    print("coupled,mm,grad_perturb,fidelity,total")
    print(f"{b.coupled:.17g},{b.mm:.17g},{b.grad_perturb:.17g},{b.fidelity:.17g},{b.total:.17g}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AtsegError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
