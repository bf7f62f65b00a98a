"""End-to-end acceptance checks, one test per shipped guarantee.

Expensive alternating-minimization runs are shared through module-scoped
fixtures; every test prints a one-line verdict so a -s run reads as a
checklist.
"""

import time

import numpy as np
import pytest
from scipy.ndimage import distance_transform_edt

from atseg.altmin import run
from atseg.cli import main
from atseg.edges import level_mask, two_sided_midpoints
from atseg.energy import (
    ModelKind,
    ModelParams,
    edge_weights,
    gagliardo_ratio,
    mm_second_order_laplacian,
)
from atseg.grid import (
    Grid2D,
    ScalarField,
    VectorField2,
    bilaplacian,
    difference_matrices,
    div_adjoint,
    dot,
    dot_vec,
    grad_forward,
    laplacian,
)
from atseg.imgio import read_f64, read_history, read_pgm, write_history, write_pgm
from atseg.profile1d import SQRT2, discrete_transition_minimum, hermite_bridge_energy
from atseg.synth import PhantomKind, PhantomSpec, generate

PAPER_FLAGS = dict(alpha=1e-2, beta=0.3, gamma=1e-3)
DESCENT_SLACK = 1e-10


def note(criterion, message):
    print(f"[acceptance] {criterion}: PASS ({message})")


def params(model, eps):
    return ModelParams(eps=eps, model=model, **PAPER_FLAGS)


@pytest.fixture(scope="module")
def phantom_runs():
    """All phantom/model combinations at the reference parameters."""
    specs = {
        "oned": PhantomSpec(PhantomKind.ONED_STRUCTURE, nx=128, ny=128, noise_sigma=0.0),
        "ellipse": PhantomSpec(PhantomKind.ELLIPSE, nx=128, ny=128, noise_sigma=0.1, seed=11),
        "circles": PhantomSpec(PhantomKind.TWO_CIRCLES, nx=128, ny=128, noise_sigma=0.1, seed=12),
    }
    configs = [
        ("at", ModelKind.FIRST_ORDER_AT, 3e-2),
        ("lap3", ModelKind.SECOND_ORDER_LAPLACIAN, 3e-2),
        ("lap9", ModelKind.SECOND_ORDER_LAPLACIAN, 9e-2),
    ]
    out = {}
    for pname, spec in specs.items():
        g, truth = generate(spec)
        for cname, model, eps in configs:
            res = run(g, params(model, eps), tol=1e-4, maxit=500, solver="direct")
            out[(pname, cname)] = (g, truth, res)
    return out


@pytest.fixture(scope="module")
def eps_sweep():
    """Second-order runs on the noiseless 512-wide strip phantom for eps in {.08,.04,.02}."""
    spec = PhantomSpec(PhantomKind.ONED_STRUCTURE, nx=512, ny=32, noise_sigma=0.0)
    g, truth = generate(spec)
    rows = []
    for eps in (0.08, 0.04, 0.02):
        p = params(ModelKind.SECOND_ORDER_LAPLACIAN, eps)
        res = run(g, p, tol=1e-4, maxit=500, solver="direct")
        rows.append((eps, p, res))
    return g, truth, rows


def test_criterion_1_transition_constant_two_routes(tmp_path, capsys):
    t0 = time.time()
    assert main(["profile", "--output", str(tmp_path / "profile.csv")]) == 0
    elapsed = time.time() - t0
    out = capsys.readouterr().out
    quad = float(next(ln for ln in out.splitlines() if ln.startswith("m (")).split("=")[1])
    table = {}
    for ln in out.splitlines():
        if ln and ln[0].isdigit():
            d, _, disc, _ = (float(x) for x in ln.split(","))
            table[d] = disc
    assert quad == pytest.approx(SQRT2, abs=1e-6)
    assert table[0.0] == pytest.approx(SQRT2, abs=2e-3)
    assert elapsed < 5.0
    note("1 transition constant", f"quad err {quad - SQRT2:+.2e}, discrete err {table[0.0] - SQRT2:+.2e}, {elapsed:.2f}s")


def test_criterion_2_partial_transition_law():
    ds = np.array([0.0, 0.25, 0.5, 0.75])
    vals = np.array([discrete_transition_minimum(d) for d in ds])
    for d, m in zip(ds, vals):
        assert m == pytest.approx(SQRT2 * (d - 1) ** 2, abs=2e-3)
    coeff = np.polyfit(ds - 1.0, vals, 2)[0]
    assert coeff == pytest.approx(SQRT2, rel=1e-2)
    note("2 partial transition law", f"max err {np.max(np.abs(vals - SQRT2 * (ds - 1) ** 2)):.2e}, fit {coeff:.6f}")


def test_criterion_3_cubic_bridge():
    assert hermite_bridge_energy(0.0, 0.0) == 433 / 35
    seq = [hermite_bridge_energy(1 - 1 / k, 1 / k) for k in range(1, 65)]
    assert all(b < a for a, b in zip(seq, seq[1:]))
    assert seq[-1] < seq[0] / 1000
    note("3 cubic bridge", f"G(0,0)=433/35 exact, decreasing to {seq[-1]:.2e}")


def test_criterion_4_operator_exactness():
    rng = np.random.default_rng(123)
    g = Grid2D.for_image(16, 16)
    worst = 0.0
    for _ in range(100):
        f = ScalarField(g, rng.random(g.npoints))
        w = ScalarField(g, rng.random(g.npoints))
        p = VectorField2(g, rng.random(g.npoints), rng.random(g.npoints))

        adj = dot_vec(grad_forward(f), p) + dot(f, div_adjoint(p))
        scale = max(1.0, abs(dot_vec(grad_forward(f), p)))
        assert abs(adj) < 1e-12 * scale

        sym = dot(laplacian(f), w) - dot(f, laplacian(w))
        scale = max(1.0, abs(dot(laplacian(f), w)))
        assert abs(sym) < 1e-12 * scale

        lf = laplacian(f)
        quad = dot(bilaplacian(f), f) - dot(lf, lf)
        scale = max(1.0, dot(lf, lf))
        assert dot(lf, lf) >= 0
        assert abs(quad) < 1e-12 * scale
        worst = max(worst, abs(adj), abs(sym) / scale, abs(quad) / scale)
    note("4 operator exactness", f"worst normalized defect {worst:.2e} over 100 fields")


def test_criterion_5_descent_and_convergence(phantom_runs):
    iteration_counts = {}
    for key, (_, _, res) in phantom_runs.items():
        totals = [e.breakdown.total for e in res.report.entries]
        slack = DESCENT_SLACK * (1.0 + totals[0])
        for a, b in zip(totals, totals[1:]):
            assert b <= a + slack, f"{key}: total rose by {b - a:.3e}"
        assert res.report.converged, f"{key}: did not reach e_k < 1e-4 in 500 iterations"
        assert res.report.entries[-1].e_k < 1e-4
        iteration_counts[key] = res.report.iterations
    note("5 descent and convergence", f"iterations {iteration_counts}")


def test_criterion_6_maximum_principle_vs_overshoot(phantom_runs):
    for (pname, cname), (_, _, res) in phantom_runs.items():
        if cname == "at":
            v = res.v.values
            assert v.min() >= -1e-12, f"{pname}: first-order v dipped to {v.min()}"
            assert v.max() <= 1.0 + 1e-12, f"{pname}: first-order v rose to {v.max()}"
    _, _, res = phantom_runs[("oned", "lap9")]
    vmax = res.v.values.max()
    mask = level_mask(res.v, 1.005)
    assert vmax > 1.005
    assert mask.count() > 0
    cols = np.nonzero(mask.as_matrix()[64])[0]
    edge_col = 63.5
    assert cols.min() < edge_col < cols.max()  # bands on both sides of the edge
    note("6 bounds vs overshoot", f"first-order in [0,1]; second-order max v {vmax:.4f}, mask {mask.count()} px")


def test_criterion_7_two_sided_localization(phantom_runs):
    g, truth, res = phantom_runs[("oned", "lap3")]
    mids = two_sided_midpoints(res.v, row=64, threshold=1.005)
    assert len(mids) == 1
    assert abs(mids[0] - truth.position) <= 2 * g.grid.h
    note("7 two-sided localization", f"midpoint {mids[0]:.4f} vs edge {truth.position} (2h={2*g.grid.h:.4f})")


@pytest.mark.xfail(
    strict=True,
    reason="at eps=0.09 the first overshoot lobe spans ~7.8*eps=0.7, which cannot fit "
    "between a centered edge and the domain boundary on the unit square; the outer "
    "overshoot maximum merges with the boundary and no interior peak pair exists",
)
def test_criterion_7_two_sided_localization_at_wide_eps(phantom_runs):
    g, truth, res = phantom_runs[("oned", "lap9")]
    mids = two_sided_midpoints(res.v, row=64, threshold=1.005)
    assert len(mids) == 1
    assert abs(mids[0] - truth.position) <= 2 * g.grid.h


def test_criterion_8_vanishing_width_trend(eps_sweep):
    g, _, rows = eps_sweep
    edge_len = g.grid.ny * g.grid.h  # measure the rectangle rule assigns to the edge
    target = 0.3 * edge_len
    gaps = []
    ratios = []
    for eps, p, res in rows:
        assert res.report.converged
        mm = res.report.entries[-1].breakdown.mm
        gaps.append(abs(mm - target) / target)
        ratios.append(gagliardo_ratio(res.v, p))
    assert all(b < a for a, b in zip(gaps, gaps[1:])), f"gaps not shrinking: {gaps}"
    assert gaps[-1] < 0.15
    assert max(ratios) < 1.0  # bounded by one fixed constant across the sweep
    note("8 vanishing-width trend", f"gaps {[f'{x:.1%}' for x in gaps]}, interpolation ratios {[f'{r:.2f}' for r in ratios]}")


def test_criterion_9_one_dimensional_coincidence():
    spec = PhantomSpec(PhantomKind.ONED_STRUCTURE, nx=128, ny=2, noise_sigma=0.0)
    g, _ = generate(spec)
    p = params(ModelKind.SECOND_ORDER_LAPLACIAN, 9e-2)
    res = run(g, p, solver="direct")
    # the paper's Hessian edge term (1/2) h^2 sum c0 (v-1)^2 + ck |D^2 v|^2, with
    # v_xx = -Dx^T Dx v, v_xy = Dy Dx v and v_yy = -Dy^T Dy v
    Dx, Dy = difference_matrices(res.v.grid)
    v = res.v.values
    dxv = Dx @ v
    hess_sq = (Dx.T @ dxv) ** 2 + 2.0 * (Dy @ dxv) ** 2 + (Dy.T @ (Dy @ v)) ** 2
    c0, ck = edge_weights(ModelKind.SECOND_ORDER_LAPLACIAN, p)
    a = 0.5 * res.v.grid.h**2 * float(np.sum(c0 * (v - 1.0) ** 2 + ck * hess_sq))
    b = mm_second_order_laplacian(res.v, p)
    assert abs(a - b) <= 1e-8 * max(1.0, abs(a))
    note("9 one-dimensional coincidence", f"|hessian-laplacian| = {abs(a - b):.2e}")


def test_criterion_10_bit_exact_io(tmp_path):
    rng = np.random.default_rng(77)
    for i in range(1000):
        maxval = 255 if i % 2 == 0 else 65535
        nx, ny = (int(x) for x in rng.integers(2, 10, 2))
        pixels = rng.integers(0, maxval + 1, nx * ny)
        f = ScalarField(Grid2D.for_image(nx, ny), pixels / maxval)
        data, _ = write_pgm(f, maxval)
        back = read_pgm(data)
        assert np.array_equal(back.values, f.values)
        assert write_pgm(back, maxval)[0] == data

    from atseg.altmin import IterationEntry, IterationReport
    from atseg.energy import EnergyBreakdown

    entries = tuple(
        IterationEntry(k + 1, float(rng.random()), EnergyBreakdown(*rng.random(4)))
        for k in range(50)
    )
    report = IterationReport(entries, True)
    assert read_history(write_history(report)) == entries

    img = tmp_path / "g.pgm"
    assert main(["synth", str(img), "--kind", "circles", "--nx", "40", "--ny", "40",
                 "--sigma", "0.1", "--seed", "7"]) == 0
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["segment", str(img), "--output-dir", str(out), "--solver", "direct"]) == 0
        blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert blobs[0] == blobs[1]
    note("10 bit-exact io", "1000 image round trips, exact history csv, identical reruns")


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("sigma", [0.1, 0.2])
@pytest.mark.parametrize("kind", ["oned", "ellipse", "circles"])
def test_default_invocation_segments(tmp_path, kind, sigma, n):
    # `atseg segment` with no weight flags on synth's default phantoms: the
    # edge field does not collapse, and every pixel on the boundary of the
    # noise-free phantom lies within 2 px of {v < 0.5}.
    img, out = tmp_path / "g.pgm", tmp_path / "out"
    assert main(["synth", str(img), "--kind", kind, "--nx", str(n), "--ny", str(n),
                 "--sigma", str(sigma), "--seed", "0"]) == 0
    assert main(["segment", str(img), "--output-dir", str(out)]) == 0
    low = read_f64((out / "v.f64").read_bytes()).as_matrix() < 0.5
    clean = generate(PhantomSpec(PhantomKind(kind), nx=n, ny=n, noise_sigma=0.0))[0].as_matrix()
    c = np.pad(clean, 1, mode="edge")
    mid = c[1:-1, 1:-1]  # a boundary pixel differs from one of its four neighbours
    boundary = (mid != c[:-2, 1:-1]) | (mid != c[2:, 1:-1]) | (mid != c[1:-1, :-2]) | (mid != c[1:-1, 2:])
    assert low.mean() < 0.5
    assert distance_transform_edt(~low)[boundary].max() <= 2.0
    note("default invocation", f"{kind} sigma={sigma} {n}^2: v < 0.5 on {low.mean():.1%}")
