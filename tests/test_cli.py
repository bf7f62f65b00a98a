import ast
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from atseg.altmin import run
from atseg.cli import main
from atseg.energy import ModelParams
from atseg.errors import AtsegError
from atseg.grid import Grid2D, ScalarField
from atseg.imgio import read_f64, read_history, read_pgm, write_pgm


def write_constant_pgm(path, value=0.5, n=16):
    g = Grid2D.for_image(n, n)
    data, _ = write_pgm(ScalarField.constant(g, value), 255)
    path.write_bytes(data)


# The usual weights quoted for 8-bit data (alpha_u = 650, gamma_u = 65): they
# collapse the edge field of a noisy phantom.
OLD_DEFAULTS = ("--alpha", "1e-2", "--gamma", "1e-3", "--intensity-scale", "255")


def synth_phantom(tmp_path, name="g.pgm", **flags):
    path = tmp_path / name
    args = ["synth", str(path)]
    for k, v in flags.items():
        args += [f"--{k.replace('_', '-')}", str(v)]
    assert main(args) == 0
    return path


class TestSegment:
    def test_constant_image(self, tmp_path, capsys):
        img = tmp_path / "c.pgm"
        write_constant_pgm(img)
        out = tmp_path / "out"
        assert main(["segment", str(img), "--output-dir", str(out)]) == 0
        history = read_history((out / "history.csv").read_bytes())
        assert len(history) == 1
        for name in ("u.pgm", "v.pgm", "v.f64", "mask.pgm"):
            assert (out / name).exists()

    def test_all_black_image(self, tmp_path):
        img = tmp_path / "black.pgm"
        write_constant_pgm(img, value=0.0)
        out = tmp_path / "out"
        assert main(["segment", str(img), "--output-dir", str(out)]) == 0
        assert len(read_history((out / "history.csv").read_bytes())) == 1

    def test_edge_band_appears_in_v(self, tmp_path):
        img = synth_phantom(tmp_path, kind="oned", nx=48, ny=48, sigma=0)
        out = tmp_path / "out"
        rc = main(["segment", str(img), "--output-dir", str(out),
                   "--model", "at", "--alpha", "1e-2", "--gamma", "1e-3", "--intensity-scale", "255", "--eps", "3e-2"])
        assert rc == 0
        v = read_pgm((out / "v.pgm").read_bytes()).as_matrix()
        assert v[:, 22:26].min() < 0.5  # dark band near the central edge
        assert v[:, :8].min() > 0.9

    def test_second_order_overshoot_mask(self, tmp_path):
        img = synth_phantom(tmp_path, kind="oned", nx=48, ny=48, sigma=0)
        out = tmp_path / "out"
        rc = main(["segment", str(img), "--output-dir", str(out),
                   "--model", "laplacian", "--eps", "9e-2"])
        assert rc == 0
        mask = read_pgm((out / "mask.pgm").read_bytes())
        assert np.count_nonzero(mask.values) > 0
        v64 = read_f64((out / "v.f64").read_bytes())
        assert v64.values.max() > 1.005  # raw field keeps the overshoot

    def test_missing_input(self, tmp_path):
        assert main(["segment", str(tmp_path / "absent.pgm")]) == 1

    def test_maxit_reached_still_writes(self, tmp_path):
        img = synth_phantom(tmp_path, kind="oned", nx=32, ny=32, sigma="0.1", seed=3)
        out = tmp_path / "out"
        rc = main(["segment", str(img), "--output-dir", str(out), "--maxit", "1",
                   "--tol", "1e-12"])
        assert rc == 2
        assert (out / "history.csv").exists()

    def test_identical_invocations_are_bit_identical(self, tmp_path):
        img = synth_phantom(tmp_path, kind="circles", nx=40, ny=40, sigma="0.1", seed=7)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            rc = main(["segment", str(img), "--output-dir", str(out), "--solver", "direct"])
            assert rc == 0
            outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("synth_flags, flags", [
        # the edge-field solve of outer iteration 1 ended at a true residual of 2.0e-10
        ({"kind": "ellipse", "sigma": 0.1, "seed": 11}, ["--model", "laplacian", "--eps", "9e-2"]),
        # the image solve of outer iteration 2 ended at 1.03e-10
        ({"kind": "circles", "nx": 128, "ny": 128, "sigma": 0.1, "seed": 12},
         ["--intensity-scale", "1", "--alpha", "1", "--gamma", "1"]),
    ])
    def test_finished_cg_solve_is_not_a_stall(self, tmp_path, synth_flags, flags):
        # scipy's cg stopped on its recursive residual with the true residual
        # above tol 1e-10, which once made segment exit 1.
        img = synth_phantom(tmp_path, **synth_flags)
        assert main(["segment", str(img), "--output-dir", str(tmp_path / "out"), *flags]) == 0

    def test_invalid_maxval_rejected_before_solving(self, tmp_path, capsys):
        img = tmp_path / "c.pgm"
        write_constant_pgm(img)
        out = tmp_path / "out"
        assert main(["segment", str(img), "--output-dir", str(out), "--maxval", "0"]) == 1
        assert "error: maxval must be in [1, 65535], got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_unusable_output_dir_rejected_before_solving(self, tmp_path, capsys, monkeypatch):
        # --output-dir names an existing file: mkdir fails, and it must do so
        # before the solve, whose cost grows with the image.
        img = tmp_path / "c.pgm"
        write_constant_pgm(img)
        out = tmp_path / "out"
        out.write_bytes(b"")

        def unreachable(*args, **kwargs):
            raise AssertionError("altmin.run called")

        monkeypatch.setattr("atseg.altmin.run", unreachable)
        assert main(["segment", str(img), "--output-dir", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert out.is_file()

    def test_unwritable_output_path_rejected_before_solving(self, tmp_path, capsys, monkeypatch):
        # out/u.pgm is a directory: writing it must fail before the solve too
        img = tmp_path / "c.pgm"
        write_constant_pgm(img)
        out = tmp_path / "out"
        (out / "u.pgm").mkdir(parents=True)

        def unreachable(*args, **kwargs):
            raise AssertionError("altmin.run called")

        monkeypatch.setattr("atseg.altmin.run", unreachable)
        assert main(["segment", str(img), "--output-dir", str(out)]) == 1
        assert "u.pgm" in capsys.readouterr().err

    def test_output_check_keeps_existing_files(self, tmp_path, monkeypatch):
        # the benchmark reruns segment into one directory; a solve that fails
        # after the check must leave the earlier outputs as they were
        img = tmp_path / "c.pgm"
        write_constant_pgm(img)
        out = tmp_path / "out"
        out.mkdir()
        names = ("u.pgm", "v.pgm", "v.f64", "mask.pgm", "history.csv")
        for name in names:
            (out / name).write_bytes(b"earlier run")

        def failing(*args, **kwargs):
            raise AtsegError("solve failed")

        monkeypatch.setattr("atseg.altmin.run", failing)
        assert main(["segment", str(img), "--output-dir", str(out)]) == 1
        assert all((out / name).read_bytes() == b"earlier run" for name in names)

    @pytest.mark.parametrize("model, eps, reported", [("at", "3e-2", True), ("laplacian", "9e-2", False)])
    def test_empty_mask_is_reported(self, tmp_path, capsys, model, eps, reported):
        # the at model's v stays <= 1, so its {v > 1.005} mask is always empty;
        # the laplacian run is the one of test_second_order_overshoot_mask
        img = synth_phantom(tmp_path, kind="oned", nx=48, ny=48, sigma=0)
        rc = main(["segment", str(img), "--output-dir", str(tmp_path / "out"), "--model", model, "--eps", eps])
        assert rc == 0
        assert ("mask.pgm: empty, no value of v above threshold 1.005" in capsys.readouterr().err) == reported

    @pytest.mark.parametrize(
        "flags, reported",
        [(["--model", "laplacian", *OLD_DEFAULTS], True), (["--model", "at", *OLD_DEFAULTS], True),
         (["--model", "laplacian", "--intensity-scale", "1", "--alpha", "0.1", "--gamma", "100"], False),
         (["--model", "at", "--intensity-scale", "1", "--alpha", "1", "--gamma", "100"], False)],
        ids=["laplacian-defaults", "at-defaults", "laplacian-readme", "at-segmenting"],
    )
    def test_collapsed_edge_field_is_reported(self, tmp_path, capsys, flags, reported):
        # On the quickstart phantom OLD_DEFAULTS leave v < 0.5 on 100%
        # (laplacian) and 98% (at) of the pixels; weights that segment, on
        # 12% and 8%.
        img = synth_phantom(tmp_path, kind="circles", nx=32, ny=32, sigma=0.1, seed=7)
        assert main(["segment", str(img), "--output-dir", str(tmp_path / "out"), *flags]) == 0
        lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("v: collapsed edge field")]
        assert len(lines) == (1 if reported else 0)

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_rejected_before_solving(self, tmp_path, capsys, threshold):
        # v > nan is false everywhere: without the check the run would write
        # an empty mask.pgm and exit 0.
        img = tmp_path / "c.pgm"
        write_constant_pgm(img)
        out = tmp_path / "out"
        assert main(["segment", str(img), "--output-dir", str(out), f"--threshold={threshold}"]) == 1
        assert "error: threshold must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_auto_solver_is_not_a_choice(self, tmp_path):
        img = tmp_path / "c.pgm"
        write_constant_pgm(img)
        with pytest.raises(SystemExit) as exc:
            main(["segment", str(img), "--output-dir", str(tmp_path / "out"), "--solver", "auto"])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()


class TestSynth:
    def test_writes_image_and_sidecar(self, tmp_path):
        path = synth_phantom(tmp_path, kind="ellipse", nx=48, ny=48, seed=5)
        sidecar = path.with_suffix(".pgm.json")
        assert sidecar.exists()
        text = sidecar.read_text()
        assert '"seed": 5' in text
        assert '"ground_truth"' in text
        img = read_pgm(path.read_bytes())
        assert img.grid.nx == 48

    def test_seeded_determinism(self, tmp_path):
        a = synth_phantom(tmp_path, "a.pgm", kind="oned", sigma="0.1", seed=3, nx=32, ny=32)
        b = synth_phantom(tmp_path, "b.pgm", kind="oned", sigma="0.1", seed=3, nx=32, ny=32)
        assert a.read_bytes() == b.read_bytes()

    def test_negative_seed_is_an_error(self, tmp_path, capsys):
        assert main(["synth", str(tmp_path / "g.pgm"), "--seed", "-1"]) == 1
        assert "error: seed must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "g.pgm").exists()

    def test_grid_beyond_memory_is_an_error(self, tmp_path, capsys):
        # 10^14 pixels (728 TiB of float64) exceed the address space: nothing is allocated
        out = tmp_path / "big.pgm"
        assert main(["synth", str(out), "--nx", "10000000", "--ny", "10000000"]) == 1
        assert "error: cannot hold a 10000000x10000000 phantom" in capsys.readouterr().err
        assert not out.exists()


class TestProfile:
    def test_constants_printed(self, tmp_path, capsys):
        csv_path = tmp_path / "profile.csv"
        assert main(["profile", "--output", str(csv_path)]) == 0
        out = capsys.readouterr().out
        m_line = next(ln for ln in out.splitlines() if ln.startswith("m ("))
        m = float(m_line.split("=")[1])
        assert m == pytest.approx(1.4142136, abs=1e-6)
        rows = {}
        for ln in out.splitlines():
            if ln and ln[0].isdigit():
                d, quad, disc, exact = (float(x) for x in ln.split(","))
                rows[d] = (quad, disc, exact)
        assert rows[1.0][1] == pytest.approx(0.0, abs=1e-7)
        assert rows[0.5][1] == pytest.approx(0.3535534, abs=2e-3)
        header = csv_path.read_text().splitlines()[0]
        assert header == "t,f"

    def test_csv_to_stdout(self, capsys):
        assert main(["profile", "--tmax", "2.0", "--step", "0.5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,f"
        t0, f0 = (float(x) for x in lines[1].split(","))
        assert t0 == 0.0
        assert f0 == pytest.approx(0.0, abs=1e-14)

    def test_too_coarse_sampling_is_an_error(self, capsys):
        assert main(["profile", "--tmax", "1.0", "--step", "0.5"]) == 1

    def test_failing_check_writes_no_csv(self, tmp_path):
        # 3 samples fail the 5-sample check, which must come before the write
        csv_path = tmp_path / "p.csv"
        assert main(["profile", "--tmax", "1", "--step", "0.5", "--output", str(csv_path)]) == 1
        assert not csv_path.exists()


class TestSweep:
    def test_rejects_single_value(self, tmp_path):
        img = tmp_path / "c.pgm"
        write_constant_pgm(img)
        assert main(["sweep", str(img), "--eps-list", "0.08"]) == 1

    def test_rejects_non_descending(self, tmp_path):
        img = tmp_path / "c.pgm"
        write_constant_pgm(img)
        assert main(["sweep", str(img), "--eps-list", "0.02,0.04"]) == 1

    def test_non_numeric_eps_entry(self, tmp_path, capsys):
        img = tmp_path / "c.pgm"
        write_constant_pgm(img)
        assert main(["sweep", str(img), "--eps-list", "0.08,abc"]) == 1
        assert "error: --eps-list entry 'abc' is not a number" in capsys.readouterr().err

    def test_all_black_image_ratio_is_nan(self, tmp_path):
        # 80x80 takes the CG path, which returns v identically 1, so the
        # ratio's denominator is exactly 0.
        img = tmp_path / "black.pgm"
        write_constant_pgm(img, value=0.0, n=80)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(img), "--eps-list", "0.08,0.04", "--output", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
        assert [r[3] for r in rows] == ["nan", "nan"]

    def test_all_black_image_ratio_is_nan_on_direct_path(self, tmp_path):
        # The direct path returns v = 1 plus rounding noise (max |v - 1| near
        # 8e-16 at 16x16), whose ratio means nothing.
        img = tmp_path / "black.pgm"
        write_constant_pgm(img, value=0.0)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(img), "--eps-list", "0.08,0.04", "--output", str(out), "--solver", "direct"]) == 0
        rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
        assert [r[3] for r in rows] == ["nan", "nan"]

    def test_constant_image_rows(self, tmp_path):
        img = tmp_path / "c.pgm"
        write_constant_pgm(img)
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", str(img), "--eps-list", "0.08,0.04", "--output", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "eps,min_total,mm_at_convergence,gagliardo_ratio,iterations"
        assert len(lines) == 3
        for ln in lines[1:]:
            eps, total, mm, ratio, its = ln.split(",")
            assert float(total) < 1e-12
            assert float(mm) < 1e-12

    def test_each_eps_gets_its_own_default_eta(self, tmp_path):
        img = synth_phantom(tmp_path, kind="oned", nx=32, ny=8, sigma=0)
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", str(img), "--eps-list", "0.08,0.04", "--output", str(out), "--solver", "direct",
                   *OLD_DEFAULTS])
        assert rc == 0
        g = read_pgm(img.read_bytes())
        for row in out.read_text().strip().splitlines()[1:]:
            eps, total = (float(x) for x in row.split(",")[:2])
            res = run(g, ModelParams(alpha=1e-2, beta=0.3, gamma=1e-3, eps=eps), solver="direct")
            assert total == res.report.entries[-1].breakdown.total

    def test_explicit_eta_checked_against_each_eps(self, tmp_path):
        img = tmp_path / "c.pgm"
        write_constant_pgm(img)
        # 0.05 < 0.1 and 0.2, though not below 3e-2, the --eps default of
        # segment and energy; sweep takes no --eps.
        assert main(["sweep", str(img), "--eps-list", "0.2,0.1", "--eta", "0.05"]) == 0

    def test_eps_flag_is_not_accepted(self, tmp_path):
        # sweep takes its eps values from --eps-list alone
        img = tmp_path / "c.pgm"
        write_constant_pgm(img)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", str(img), "--eps-list", "0.08,0.04", "--eps", "0.05"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [["--eps-list", "0.2,0.01", "--eta", "0.05"], ["--eps-list", "0.1,-1"]])
    def test_every_eps_checked_before_any_output(self, tmp_path, capsys, flags):
        img = tmp_path / "c.pgm"
        write_constant_pgm(img)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(img), *flags, "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_capped_runs_exit_2_after_every_row(self, tmp_path, capsys):
        # As segment does at the cap; the CSV still holds one row per eps.
        img = synth_phantom(tmp_path, kind="circles", nx=32, ny=32, sigma=0.1, seed=7)
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", str(img), "--eps-list", "0.06,0.03", "--model", "laplacian", "--maxit", "2",
                   "--output", str(out)])
        assert rc == 2
        rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
        assert [r[4] for r in rows] == ["2", "2"]
        err = capsys.readouterr().err.splitlines()
        assert err == ["eps=0.06: hit the iteration cap --maxit 2", "eps=0.03: hit the iteration cap --maxit 2"]

    def test_edge_phantom_trend(self, tmp_path):
        img = synth_phantom(tmp_path, kind="oned", nx=128, ny=16, sigma=0)
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", str(img), "--eps-list", "0.08,0.04", "--model", "laplacian",
                   "--output", str(out), "--solver", "direct"])
        assert rc == 0
        rows = [ln.split(",") for ln in out.read_text().strip().splitlines()[1:]]
        edge_len = 16 / 127  # quadrature measure of the vertical edge
        target = 0.3 * edge_len
        gaps = [abs(float(r[2]) - target) / target for r in rows]
        assert gaps[1] < gaps[0]
        for r in rows:
            assert np.isfinite(float(r[3])) and float(r[3]) > 0
            assert int(r[4]) <= 500


class TestEnergy:
    def test_breakdown_printed(self, tmp_path, capsys):
        img = synth_phantom(tmp_path, kind="oned", nx=32, ny=32, sigma=0)
        assert main(["energy", str(img)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-2] == "coupled,mm,grad_perturb,fidelity,total"
        coupled, mm, gp, fid, total = (float(x) for x in out[-1].split(","))
        assert fid == 0.0 and mm == 0.0
        assert coupled > 0
        assert total == coupled + mm + gp + fid

    @pytest.mark.parametrize(
        "flag, value", [("--solver", "direct"), ("--tol", "1e-3"), ("--maxit", "3"), ("--bc", "dirichlet1")]
    )
    def test_solver_flags_are_not_accepted(self, tmp_path, flag, value):
        # energy runs no solve, so it takes no solver or boundary flags
        img = tmp_path / "c.pgm"
        write_constant_pgm(img)
        with pytest.raises(SystemExit) as exc:
            main(["energy", str(img), flag, value])
        assert exc.value.code == 2

    def test_overflowing_weight_is_an_error(self, tmp_path, capsys):
        # alpha_u = alpha * 255^2 overflows to inf: an error, not a non-finite energy
        img = tmp_path / "c.pgm"
        write_constant_pgm(img)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["energy", str(img), *OLD_DEFAULTS, "--alpha", "1e306"]) == 1
        assert "error: alpha * intensity_scale**2 must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, status",
    [
        (["--alpha", "1e300"], 1),
        (["--intensity-scale", "1", "--gamma", "1e300"], 1),
        (["--eps", "1e-300"], 1),
        (["--eps", "1e-300", "--solver", "direct"], 0),
        (["--intensity-scale", "1", "--gamma", "1e300", "--solver", "direct"], 1),
        (["--intensity-scale", "1", "--alpha", "1e300", "--gamma", "1e-3"], 1),
        (["--intensity-scale", "1", "--alpha", "1e300", "--gamma", "1e-3", "--model", "laplacian"], 1),
    ],
    ids=["alpha", "gamma", "eps", "eps-direct", "gamma-direct", "alpha-small-gamma", "alpha-laplacian"],
)
def test_overflow_in_a_solve_is_an_error(tmp_path, capsys, flags, status):
    # finite weights whose system entries overflow: an error, not a warning.
    # eps = 1e-300 overflows only inside CG's products, so direct still segments.
    # The last three have finite entries whose squares overflow, which neither
    # scipy.sparse's products nor the solver's sums report: the residual norm
    # of the direct and laplacian solves is inf, and CG on the at model's
    # image system breaks down.
    img = synth_phantom(tmp_path, kind="circles", nx=32, ny=32, sigma=0.1, seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["segment", str(img), "--output-dir", str(tmp_path / "out"), *flags]) == status
    assert ("error: overflow" in capsys.readouterr().err) == (status == 1)


class TestNonFiniteInput:
    def test_segment_nan_tol(self, tmp_path):
        img = tmp_path / "c.pgm"
        write_constant_pgm(img)
        assert main(["segment", str(img), "--output-dir", str(tmp_path / "out"), "--tol", "nan"]) == 1

    def test_profile_nan_step(self):
        assert main(["profile", "--step", "nan"]) == 1


@pytest.mark.parametrize("command", ["segment", "sweep"])
@pytest.mark.parametrize(
    "flag, message",
    [
        ("--tol", "tolerance must be positive"),
        ("--maxit", "maxit must be an integer of at least 1, got 0"),
        ("--gamma", "gamma must be positive: the u-system is singular without fidelity"),
    ],
    ids=["tol", "maxit", "gamma"],
)
def test_run_argument_errors_leave_no_output(tmp_path, capsys, command, flag, message):
    # checked after reading the input and before creating any output
    img = tmp_path / "c.pgm"
    write_constant_pgm(img)
    out = tmp_path / "out"
    if command == "segment":
        args = ["segment", str(img), "--output-dir", str(out)]
    else:
        args = ["sweep", str(img), "--eps-list", "0.06,0.03", "--output", str(out)]
    assert main([*args, flag, "0"]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_profile_too_many_samples():
    # 1e15 samples: numpy cannot allocate them (7 PiB), so no memory is touched
    assert main(["profile", "--tmax", "1e12"]) == 1


# Each is imported where a command needs it: scipy.special for a noisy
# phantom's inverse normal CDF, and scipy.sparse.linalg (which imports
# scipy.linalg) for `profile`'s sparse solve and --solver direct.  No command
# loads scipy.integrate or scipy.optimize: `profile`'s quadrature is the
# package's own Simpson rule.  A CG segment loads none of them.
ON_DEMAND = ("scipy.integrate", "scipy.optimize", "scipy.special", "scipy.linalg", "scipy.sparse.linalg")


def _on_demand_loaded(tmp_path, model=None, argv=None):
    """Which ON_DEMAND modules a fresh interpreter holds after importing the
    CLI and, if a model is given, segmenting a small phantom with it, or
    else, if argv is given, running that command."""
    code = "import sys, atseg.cli"
    if model is not None:
        img = synth_phantom(tmp_path, nx=32, ny=32, sigma=0.1, seed=7)
        argv = ["segment", str(img), "--output-dir", str(tmp_path / "out"), "--model", model]
    if argv is not None:
        code += f"; assert atseg.cli.main({argv!r}) == 0"
    code += f"; print(sorted(m for m in {ON_DEMAND!r} if m in sys.modules))"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return ast.literal_eval(out.stdout.splitlines()[-1])


def test_cli_import_leaves_integration_unloaded(tmp_path):
    # Only `profile` integrates; every other command starts without
    # scipy.integrate and the scipy.optimize it imports.
    assert not {"scipy.integrate", "scipy.optimize"} & set(_on_demand_loaded(tmp_path))


def test_profile_leaves_integration_unloaded(tmp_path):
    # profile integrates with the package's own Simpson rule
    argv = ["profile", "--output", str(tmp_path / "profile.csv")]
    assert not {"scipy.integrate", "scipy.optimize"} & set(_on_demand_loaded(tmp_path, argv=argv))


def test_cli_import_leaves_special_functions_unloaded(tmp_path):
    # Only a noisy phantom draws from the inverse normal CDF; every other
    # command starts without scipy.special.
    assert "scipy.special" not in _on_demand_loaded(tmp_path)


@pytest.mark.parametrize("model", [None, "at", "laplacian"], ids=["import", "segment-at", "segment-laplacian"])
def test_fresh_interpreter_leaves_on_demand_modules_unloaded(tmp_path, model):
    assert _on_demand_loaded(tmp_path, model) == []
