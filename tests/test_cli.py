import csv
import io
import json
from types import SimpleNamespace

import numpy as np
import pytest

from skinspec.cli import _write_table, main


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
