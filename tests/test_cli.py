import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from skinspec import cli, spectral, toeplitz2
from skinspec.capacitance import ResonatorChain, generalized_matrix, interface_chain, mode_profile
from skinspec.cli import _write_table, main
from skinspec.oracle import ConvergenceError
from skinspec.toeplitz2 import PerturbedDimerParams


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


FIG1 = {
    "mode": "matrix",
    "alpha1": 1, "alpha2": 2, "beta1": 3, "beta2": 4, "gamma1": 4, "gamma2": 5,
    "a": 9, "b": 10, "n": 101,
}
DIMER = {
    "mode": "chain", "N": 50, "ell": 1.0, "spacings": [1.0, 2.0],
    "gamma": 1.0, "delta": 0.001, "v": 1.0, "v_b": 1.0,
}
INTERFACE = {
    "mode": "interface", "N": 60, "ell": 1.0, "spacings": [1.0, 2.0],
    "gamma": 1.0, "delta": 0.001, "v": 1.0, "v_b": 1.0,
}


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


def test_spectrum_matrix_fig1(tmp_path):
    cfg = write_config(tmp_path, "fig1.json", FIG1)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "spectrum.csv")
    assert len(rows) == 101
    lams = np.array([float(r["lambda"]) for r in rows])
    assert np.min(np.abs(lams - 11.6217)) < 5e-5
    assert "omega" not in rows[0]


def test_spectrum_chain_single_outlier(tmp_path):
    cfg = write_config(tmp_path, "dimer.json", DIMER)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "spectrum.csv")
    assert len(rows) == 50
    outliers = [r for r in rows if r["klass"] == "exceptional"]
    assert len(outliers) == 1
    assert abs(float(outliers[0]["lambda"])) <= 1e-10
    assert float(outliers[0]["omega"]) == 0.0


def test_spectrum_empty_config_exit2(tmp_path):
    cfg = tmp_path / "empty.json"
    cfg.write_text("{}")
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    missing = tmp_path / "nope.json"
    assert main(["spectrum", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2


def test_spectrum_invalid_numbers_exit2(tmp_path):
    bad = dict(DIMER, gamma=0.0)
    cfg = write_config(tmp_path, "bad.json", bad)
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_interface_unequal_lengths_exit2(tmp_path):
    bad = dict(INTERFACE, N=4, ell=[1.0, 2.0, 1.0, 1.0])
    cfg = write_config(tmp_path, "bad.json", bad)
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_non_integral_order_exit2(tmp_path):
    for name, bad in (
        ("n_frac.json", dict(FIG1, n=2.7)),
        ("n_text.json", dict(FIG1, n="x")),
        ("N_text.json", dict(DIMER, N="x")),
    ):
        cfg = write_config(tmp_path, name, bad)
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_topology_small_grid_exit2(tmp_path):
    cfg = write_config(tmp_path, "dimer.json", DIMER)
    code = main([
        "topology", "--config", str(cfg), "--out", str(tmp_path / "o"), "--grid=-1,5,-2,2,8,8",
    ])
    assert code == 2


def test_topology_non_finite_grid_exit2(tmp_path):
    cfg = write_config(tmp_path, "dimer.json", DIMER)
    for grid in ("nan,1,-1,1,16,16", "-1,inf,-1,1,16,16"):
        out = tmp_path / "o"
        code = main(["topology", "--config", str(cfg), "--out", str(out), f"--grid={grid}"])
        assert code == 2
        assert not (out / "pseudospectrum.csv").exists()


def test_strong_gauge_chain_exit3(tmp_path, capsys):
    # exp(gamma * ell) overflows double precision: a clean numerical failure.
    cfg = write_config(tmp_path, "strong.json", dict(DIMER, N=10, gamma=800.0))
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("skinspec: numerical failure:") and err.count("\n") == 1


def test_overflowing_bands_exit3(tmp_path, capsys):
    # gamma1*beta1 overflows: the symmetrized bands are not finite.
    huge = dict(FIG1, alpha1=1e300, beta1=3e200, beta2=4e200, gamma1=5e200, gamma2=4e200)
    cfg = write_config(tmp_path, "huge.json", huge)
    for command in ("spectrum", "modes", "topology"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("skinspec: numerical failure:") and err.count("\n") == 1
        assert "Traceback" not in err


def test_non_numeric_config_values_exit2(tmp_path, capsys):
    for name, bad in (
        ("N_string.json", dict(DIMER, N="7")),
        ("gamma_bool.json", dict(DIMER, gamma=True)),
        ("alpha_bool.json", dict(FIG1, alpha1=False)),
    ):
        cfg = write_config(tmp_path, name, bad)
        assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "is not a number" in capsys.readouterr().err
    # An integer literal of 5,000 digits is past what json converts.
    cfg = tmp_path / "long_int.json"
    cfg.write_text(json.dumps(DIMER).replace('"N": 50', '"N": 1' + "0" * 5000))
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_tiny_gauge_chain_exit0(tmp_path):
    cfg = write_config(tmp_path, "tiny.json", dict(DIMER, N=20, gamma=1e-17))
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


def test_modes_eigenvector_methods(tmp_path):
    # A dimer chain's matrix is a perturbed dimer matrix: closed form for
    # every pair.  An interface matrix is not, so it uses inverse iteration.
    for name, config, method in (
        ("dimer.json", DIMER, "exact"),
        ("interface.json", INTERFACE, "inverse_iteration"),
    ):
        out = tmp_path / method
        assert main(["modes", "--config", str(write_config(tmp_path, name, config)),
                     "--out", str(out)]) == 0
        reports = json.loads((out / "decay_reports.json").read_text())
        assert len(reports) == config["N"]
        assert {r["method"] for r in reports} == {method}


def test_modes_matrix_residuals(tmp_path):
    cfg = write_config(tmp_path, "fig1.json", dict(FIG1, n=41))
    out = tmp_path / "out"
    assert main(["modes", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv(out / "modes.csv")
    assert len(rows) == 41 * 41
    for r in rows[:200]:
        assert float(r["residual"]) <= 1e-9 * max(1.0, abs(float(r["lambda"])))
    reports = json.loads((out / "decay_reports.json").read_text())
    assert len(reports) == 41


def test_modes_chain_decay_reports(tmp_path):
    cfg = write_config(tmp_path, "dimer.json", DIMER)
    out = tmp_path / "out"
    assert main(["modes", "--config", str(cfg), "--out", str(out)]) == 0
    reports = json.loads((out / "decay_reports.json").read_text())
    satisfied = [r for r in reports if r["satisfied"]]
    flagged = [r for r in reports if not r["satisfied"]]
    assert len(satisfied) == 49
    assert len(flagged) == 1 and abs(flagged[0]["lambda"]) <= 1e-10
    assert (out / "profiles.csv").exists()


def test_modes_interface_peaks(tmp_path):
    cfg = write_config(tmp_path, "interface.json", INTERFACE)
    out = tmp_path / "out"
    assert main(["modes", "--config", str(cfg), "--out", str(out)]) == 0
    reports = json.loads((out / "decay_reports.json").read_text())
    loc = [r for r in reports if r["satisfied"]]
    assert len(reports) - len(loc) <= 4
    for r in loc:
        assert min(abs(r["peak_index"] - 30), abs(r["peak_index"] - 31)) <= 2


def test_topology_outputs(tmp_path):
    cfg = write_config(tmp_path, "dimer.json", DIMER)
    out = tmp_path / "out"
    code = main([
        "topology", "--config", str(cfg), "--out", str(out),
        "--grid=-1,5,-2,2,32,32", "--samples", "8192",
    ])
    assert code == 0
    grid_rows = read_csv(out / "pseudospectrum.csv")
    assert len(grid_rows) == 32 * 32
    sig = np.array([float(r["sigma_min"]) for r in grid_rows])
    assert np.all(sig >= 0.0)
    assert not np.any((sig <= 1e-5) & ~(sig <= 1e-1))  # nesting in emitted grid

    wrows = read_csv(out / "winding.csv")
    kernel = [r for r in wrows if abs(float(r["lambda"])) <= 1e-10]
    assert kernel and kernel[0]["winding_det_defined"] == "false"
    eigs = [r for r in wrows if r["winding_eig"] not in ("", None)]
    assert sum(abs(int(r["winding_eig"])) >= 1 for r in eigs) >= 0.9 * len(wrows) - 1
    summary = json.loads((out / "topology_summary.json").read_text())
    assert summary["det_min_on_circle"] <= 1e-8


def test_topology_windings_match_fine_sampling(tmp_path):
    # Mixed-sign bands: 4096-sample windings used to exit 4 on this matrix.
    config = {"mode": "matrix", "alpha1": 1, "alpha2": 2, "beta1": 3, "beta2": -4,
              "gamma1": 4, "gamma2": -5, "n": 40}
    cfg = write_config(tmp_path, "mixed.json", config)
    out = tmp_path / "out"
    assert main(["topology", "--config", str(cfg), "--out", str(out),
                 "--grid=-20,20,-10,10,16,16"]) == 0
    params = PerturbedDimerParams(1.0, 2.0, 3.0, -4.0, 4.0, -5.0)
    dcurve, union = spectral.det_curve(params, 2**18), spectral.eig_curve_union(params, 2**18)
    rows = read_csv(out / "winding.csv")
    assert len(rows) == 40
    for r in rows:
        lam = float(r["lambda"])
        assert int(r["winding_det"]) == spectral.winding(dcurve, lam)
        assert int(r["winding_eig"]) == spectral.winding(union, lam)


def test_topology_mixed_sign_branch_swap(tmp_path, capsys):
    # The discriminant starts on the square-root cut: the branches swap.
    mixed = {"mode": "matrix", "alpha1": 0, "alpha2": 0, "beta1": 1, "beta2": -1,
             "gamma1": 2, "gamma2": -3, "n": 40}
    grid = "--grid=-5,5,-5,5,16,16"
    cfg = write_config(tmp_path, "mixed.json", mixed)
    assert main(["topology", "--config", str(cfg), "--out", str(tmp_path / "a"), grid]) == 0
    assert len(read_csv(tmp_path / "a" / "eig_curves.csv")) == 2 * 4097
    assert capsys.readouterr().err == ""


def test_topology_branch_point_at_loop_start_exit0(tmp_path, capsys):
    # gamma1 = 1 puts a branch point of the eigenvalue loops at z = 1, where
    # the sampled loop starts: the curves come back open, the windings are
    # closed forms and both columns are written.
    branch = {"mode": "matrix", "alpha1": 0, "alpha2": 0, "beta1": 1, "beta2": -1,
              "gamma1": 1, "gamma2": -3, "n": 40}
    cfg = write_config(tmp_path, "branch.json", branch)
    out = tmp_path / "out"
    assert main(["topology", "--config", str(cfg), "--out", str(out), "--grid=-5,5,-5,5,16,16"]) == 0
    assert capsys.readouterr().err == ""
    assert len(read_csv(out / "eig_curves.csv")) == 2 * 4097
    params = PerturbedDimerParams(0.0, 0.0, 1.0, -1.0, 1.0, -3.0)
    dcurve = spectral.det_curve(params, 2**16)
    rows = read_csv(out / "winding.csv")
    assert len(rows) == 40
    for r in rows:
        lam = float(r["lambda"])
        assert r["winding_det_defined"] == "true"
        assert int(r["winding_det"]) == spectral.winding(dcurve, lam)
        # det(f - lam I) winds around 0 as both branches do around lam; the
        # two eigenvalues nearest 0, the branch point's value, lie on it.
        shifted = spectral.det_shifted_curve(params, lam, 2**16)
        if r["winding_eig"] == "":
            assert np.min(np.abs(shifted.points)) < 1e-8
        else:
            assert int(r["winding_eig"]) == spectral.winding(shifted, 0.0)
    assert sum(r["winding_eig"] == "" for r in rows) == 2


def test_topology_does_not_import_scipy_optimize(tmp_path):
    cfg = write_config(tmp_path, "dimer.json", dict(DIMER, N=10))
    script = (
        "import sys; from skinspec.cli import main; "
        "code = main(sys.argv[1:]); print(code, 'scipy.optimize' in sys.modules)"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["topology", "--config", str(cfg), "--out", str(tmp_path / "o"),
            "--grid=-1,5,-2,2,16,16"]
    run = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True)
    assert run.stdout.split() == ["0", "False"]


def test_topology_bad_eps_exit2(tmp_path):
    cfg = write_config(tmp_path, "dimer.json", DIMER)
    code = main([
        "topology", "--config", str(cfg), "--out", str(tmp_path / "o"),
        "--eps", "0.1,-0.2",
    ])
    assert code == 2


def test_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "dimer.json", DIMER)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["spectrum", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()


def test_json_format_round_trip(tmp_path):
    cfg = write_config(tmp_path, "dimer.json", dict(DIMER, N=10))
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out), "--format", "json"]) == 0
    payload = json.loads((out / "spectrum.json").read_text())
    assert len(payload) == 10
    # round trip: dump -> parse -> equality
    assert json.loads(json.dumps(payload)) == payload


def test_csv_uses_lf_line_endings(tmp_path):
    cfg = write_config(tmp_path, "dimer.json", dict(DIMER, N=6))
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    raw = (out / "spectrum.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.decode().splitlines()[0] == "index,lambda,mu,klass,theta,omega"


def _fmt_reference(value) -> str:
    """The per-cell CSV formatter the table writer replaced."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def test_write_table_matches_reference_format(tmp_path):
    columns = {
        "index": np.arange(7),
        "value": np.array([-0.0, np.nan, np.inf, -np.inf, 1e16, 5e-324, 0.1]),
        "maybe": [None, 1.5, -2, None, 3.25e-7, None, 0],
        "flag": [True, False, None, True, False, True, False],
        "mask": np.array([True, False, True, True, False, False, True]),
        "klass": ["bulk", "exceptional", "a,b", 'say "hi"', "", "unclassified", "bulk"],
    }
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(columns))
        for row in zip(*columns.values()):
            writer.writerow([_fmt_reference(v) for v in row])

    path = _write_table(SimpleNamespace(out_dir=tmp_path / "csv", fmt="csv"), "t", columns)
    assert path.read_bytes() == ref.read_bytes()

    path = _write_table(SimpleNamespace(out_dir=tmp_path / "json", fmt="json"), "t", columns)
    text = path.read_text()
    assert '"flag": true' in text and '"mask": false' in text and '"maybe": null' in text
    rows = json.loads(text)
    assert [r["flag"] for r in rows] == columns["flag"]
    assert [r["mask"] for r in rows] == columns["mask"].tolist()
    assert [r["maybe"] for r in rows] == columns["maybe"]
    assert [r["index"] for r in rows] == list(range(7))
    assert all(type(r["index"]) is int for r in rows)
    assert [r["klass"] for r in rows] == columns["klass"]
    assert np.array_equal([r["value"] for r in rows], columns["value"], equal_nan=True)


def _flat_reference(flat: dict) -> tuple[bytes, str]:
    """CSV bytes and JSON text of a flat table, cell by cell as before broadcasting."""
    rows = list(zip(*(c.tolist() for c in flat.values())))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(flat))
    for row in rows:
        writer.writerow([_fmt_reference(v) for v in row])
    payload = [dict(zip(flat, row)) for row in rows]
    return buf.getvalue().encode(), json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n"


@pytest.mark.parametrize("K, M", [(5, 5), (1, 6), (3, 8)])
def test_write_table_blocks_match_flat_reference(tmp_path, K, M):
    rng = np.random.default_rng(100 * K + M)
    special = np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1, 1e16, -2.5])
    lam = rng.standard_normal((K, 1))
    lam[0, 0] = -0.0
    x = np.resize(special, (1, M))
    flag = (np.arange(M) % 3 == 0)[None, :]
    value = rng.choice(np.concatenate([special, rng.standard_normal(8)]), (K, M))
    blocks = {
        "index": np.arange(K)[:, None],
        "lambda": lam,
        "entry_index": np.arange(M)[None, :],
        "x": x,
        "flag": flag,
        "value": value,
    }
    flat = {
        "index": np.repeat(np.arange(K), M),
        "lambda": np.repeat(lam[:, 0], M),
        "entry_index": np.tile(np.arange(M), K),
        "x": np.tile(x[0], K),
        "flag": np.tile(flag[0], K),
        "value": value.ravel(),
    }
    csv_ref, json_ref = _flat_reference(flat)
    path = _write_table(SimpleNamespace(out_dir=tmp_path / "csv", fmt="csv"), "t", blocks)
    assert path.read_bytes() == csv_ref
    path = _write_table(SimpleNamespace(out_dir=tmp_path / "json", fmt="json"), "t", blocks)
    assert path.read_text() == json_ref


def test_write_table_str_cells_match_csv_writer(tmp_path):
    texts = ["a\rb", "x\ny", "", "a,b", 'say "hi"', "plain"]
    columns = {"text": texts, "index": np.arange(len(texts)), 'note, "quoted"': texts[::-1]}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(columns))
    writer.writerows(zip(texts, range(len(texts)), texts[::-1]))
    path = _write_table(SimpleNamespace(out_dir=tmp_path, fmt="csv"), "t", columns)
    assert path.read_bytes() == buf.getvalue().encode()


def test_write_table_rejects_mixed_dimensions(tmp_path):
    for columns in (
        {"index": np.arange(3), "value": np.zeros((3, 3))},
        {"index": np.arange(3)[:, None], "klass": ["a", "b", "c"]},
    ):
        for fmt in ("csv", "json"):
            with pytest.raises(ValueError):
                _write_table(SimpleNamespace(out_dir=tmp_path, fmt=fmt), "t", columns)
    assert not list(tmp_path.iterdir())


def test_write_table_takes_supplied_text_in_csv_only(tmp_path):
    columns = {
        "index": np.arange(2)[:, None],
        "value": np.array([[0.5, -0.0, 1e300], [5e-324, 2.0, -3.0]]),
        "tail": np.array([[1.5], [2.5]]),
    }
    text = {
        "value": np.array([["a", "b", "c"], ["d", "e", "f"]], dtype=object),
        "tail": np.array([["x"], ["y"]], dtype=object),
    }
    path = _write_table(SimpleNamespace(out_dir=tmp_path / "csv", fmt="csv"), "t", columns, text)
    assert path.read_text() == "index,value,tail\n0,a,x\n0,b,x\n0,c,x\n1,d,y\n1,e,y\n1,f,y\n"
    assert text["tail"].tolist() == [["x"], ["y"]]  # the line ends are not written into it
    plain = _write_table(SimpleNamespace(out_dir=tmp_path / "plain", fmt="json"), "t", columns)
    given = _write_table(SimpleNamespace(out_dir=tmp_path / "json", fmt="json"), "t", columns, text)
    assert given.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("config", [dict(DIMER, N=12), dict(INTERFACE, N=16)],
                         ids=["chain", "interface"])
def test_modes_tables_match_flat_reference(tmp_path, config):
    # modes.csv and profiles.csv share their eigenvector text; both must read
    # as if every cell were formatted on its own.
    path = write_config(tmp_path, "config.json", config)
    options = SimpleNamespace(grid=None, eps=None, samples=None, format="csv")
    prob = cli._solve(cli.load_config(path, tmp_path / "unused", options))
    pairs = toeplitz2.solve_tridiagonal_eigenpairs(prob.matrix, prob.params)
    vectors = np.stack([p.vector for p in pairs])
    K, n = vectors.shape
    prof = mode_profile(prob.chain, vectors)
    M = prof.values.shape[1]
    tables = {
        "modes": {
            "index": np.repeat(np.arange(K), n),
            "lambda": np.repeat([p.lam for p in pairs], n),
            "entry_index": np.tile(np.arange(n), K),
            "value": vectors.ravel(),
            "residual": np.repeat([p.residual for p in pairs], n),
        },
        "profiles": {
            "index": np.repeat(np.arange(K), M),
            "x": np.tile(prof.xs, K),
            "resonator": np.tile(prof.resonator_index_map, K),
            "value": prof.values.ravel(),
        },
    }
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        assert main(["modes", "--config", str(path), "--out", str(out), "--format", fmt]) == 0
        for stem, flat in tables.items():
            csv_ref, json_ref = _flat_reference(flat)
            got = (out / f"{stem}.{fmt}").read_bytes()
            assert got == (csv_ref if fmt == "csv" else json_ref.encode())


def _cell(value):
    """A value as its CSV cell: empty for None, true/false for booleans, else repr."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else repr(value)


def _column(rows, name):
    return [r[name] for r in rows]


@pytest.mark.parametrize("config", [FIG1, DIMER, INTERFACE], ids=["fig1", "dimer", "interface"])
def test_spectrum_and_topology_compute_no_eigenvectors(tmp_path, monkeypatch, config):
    # Both commands publish eigenvalues only; their columns must still equal
    # the ones derived from the eigenpairs that modes computes.
    path = write_config(tmp_path, "config.json", config)
    options = SimpleNamespace(grid=None, eps=None, samples=None, format="csv")
    prob = cli._solve(cli.load_config(path, tmp_path / "unused", options))
    pairs = toeplitz2.solve_tridiagonal_eigenpairs(prob.matrix, prob.params)

    def no_eigenpairs(*args, **kwargs):
        raise AssertionError("spectrum and topology must not build eigenpairs")

    monkeypatch.setattr(toeplitz2, "solve_tridiagonal_eigenpairs", no_eigenpairs)
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
    rows = read_csv(tmp_path / "s" / "spectrum.csv")
    for name, attr in (("lambda", "lam"), ("mu", "mu"), ("klass", "klass"), ("theta", "theta")):
        assert _column(rows, name) == [_cell(getattr(p, attr)) for p in pairs]

    grid = "--grid=-1,5,-2,2,16,16"
    assert main(["topology", "--config", str(path), "--out", str(tmp_path / "t"), grid]) == 0
    rows = read_csv(tmp_path / "t" / "winding.csv")
    lams = np.array([p.lam for p in pairs])
    a1, a2 = prob.params.alpha1, prob.params.alpha2
    w_det = spectral.ellipse_winding(prob.params, a1 * a2 - lams)
    w_eig = spectral.ellipse_winding(prob.params, (a1 - lams) * (a2 - lams))
    assert _column(rows, "lambda") == [_cell(p.lam) for p in pairs]
    assert _column(rows, "winding_det") == [_cell(w) for w in w_det]
    assert _column(rows, "winding_det_defined") == [_cell(w is not None) for w in w_det]
    assert _column(rows, "winding_eig") == [_cell(w) for w in w_eig]


@pytest.mark.parametrize("mode, n", [("chain", 120), ("interface", 160)])
@pytest.mark.parametrize("gamma", [16.0, 28.0])
def test_strong_skin_spectrum_and_topology_exit0(tmp_path, mode, n, gamma):
    # At gamma*ell >= 16 the eigenvectors are refused (modes still exits 3),
    # but the certified eigenvalues are right: spectrum and topology succeed.
    config = dict(DIMER, mode=mode, N=n, gamma=gamma)
    path = write_config(tmp_path, "strong.json", config)
    if mode == "chain":
        chain = ResonatorChain(np.ones(n), np.resize([1.0, 2.0], n - 1), np.full(n, gamma),
                               delta=1e-3, v=1.0, v_b=1.0)
    else:
        chain = interface_chain(n, gamma, ell=1.0, s1=1.0, s2=2.0, delta=1e-3, v=1.0, v_b=1.0)
    G = generalized_matrix(chain)
    ref = eigh_tridiagonal(G.diag, np.sqrt(G.upper * G.lower), eigvals_only=True,
                           lapack_driver="stebz")
    tol = 1e-10 * np.maximum(1.0, np.abs(ref))

    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
    lams = np.array([float(r["lambda"]) for r in read_csv(tmp_path / "s" / "spectrum.csv")])
    assert np.all(np.abs(lams - ref) <= tol)

    pad = float(0.25 * (ref[-1] - ref[0] + 1.0))
    grid = f"--grid={ref[0] - pad},{ref[-1] + pad},{-pad},{pad},16,16"
    assert main(["topology", "--config", str(path), "--out", str(tmp_path / "t"), grid]) == 0
    lams = np.array([float(r["lambda"]) for r in read_csv(tmp_path / "t" / "winding.csv")])
    assert np.all(np.abs(lams - ref) <= tol)


def test_failed_command_adds_no_file(tmp_path, monkeypatch):
    # A pseudospectrum that does not converge makes topology exit 3 after
    # det_curve.csv, eig_curves.csv and winding.csv are done.
    staged = []

    def stalled(*args, **kwargs):
        staged.append(sorted(p.name for p in tmp_path.glob("*/.staging-*/*")))
        raise ConvergenceError("sigma_min did not converge")

    monkeypatch.setattr(spectral, "pseudospectrum", stalled)
    cfg = write_config(tmp_path, "stall.json", dict(FIG1, n=40))
    grid = "--grid=-5,5,-5,5,16,16"
    fresh = tmp_path / "fresh"
    assert main(["topology", "--config", str(cfg), "--out", str(fresh), grid]) == 3
    assert staged == [["det_curve.csv", "eig_curves.csv", "winding.csv"]]
    assert not fresh.exists()

    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "spectrum.csv").write_text("earlier run\n")
    assert main(["topology", "--config", str(cfg), "--out", str(kept), grid]) == 3
    assert [p.name for p in kept.iterdir()] == ["spectrum.csv"]
    assert (kept / "spectrum.csv").read_text() == "earlier run\n"

    # A command that succeeds replaces the file and leaves no staging directory.
    fig1 = write_config(tmp_path, "fig1.json", FIG1)
    assert main(["spectrum", "--config", str(fig1), "--out", str(kept)]) == 0
    assert [p.name for p in kept.iterdir()] == ["spectrum.csv"]
    assert len(read_csv(kept / "spectrum.csv")) == 101
