import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import resonet as rn
import resonet.cli as cli
from resonet.cli import main


@pytest.fixture()
def table2_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps({"order": 4, "f0_hz": 10e9, "bandwidth_hz": 0.5e9, "ripple_db": 0.04321})
    )
    return path


@pytest.fixture()
def table2_design(tmp_path, table2_config):
    out = tmp_path / "design.json"
    assert main(["synthesize", "--config", str(table2_config), "--out", str(out)]) == 0
    return out


def test_synthesize_report_matches_reference_table(table2_config, tmp_path, capsys):
    out = tmp_path / "d.json"
    code = main(["synthesize", "--config", str(table2_config), "--out", str(out)])
    report = capsys.readouterr().out
    assert code == 0
    assert "18.628" in report
    assert "0.046" in report and "0.035" in report
    assert out.exists()
    design = rn.load_design(out)
    assert design.targets.qe_in == pytest.approx(18.628, abs=0.05)


def test_synthesize_from_preset(tmp_path, capsys):
    out = tmp_path / "d.json"
    assert main(["synthesize", "--preset", "yband-4pole", "--out", str(out)]) == 0
    report = capsys.readouterr().out
    assert "46.57" in report
    assert "0.018" in report and "0.014" in report


def test_synthesize_missing_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"f0_hz": 10e9, "bandwidth_hz": 0.5e9, "ripple_db": 0.04321}))
    assert main(["synthesize", "--config", str(cfg), "--out", str(tmp_path / "d.json")]) == 2
    assert "order" in capsys.readouterr().err


def test_synthesize_malformed_json_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["synthesize", "--config", str(cfg), "--out", str(tmp_path / "d.json")]) == 2


def test_synthesize_invalid_spec_exits_3(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"order": 1, "f0_hz": 10e9, "bandwidth_hz": 0.5e9, "ripple_db": 0.04321}))
    assert main(["synthesize", "--config", str(cfg), "--out", str(tmp_path / "d.json")]) == 3


def test_missing_config_file_exits_4(tmp_path):
    assert main(["synthesize", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "d.json")]) == 4


def test_no_arguments_is_a_parse_error():
    assert main([]) == 2


def test_sweep_csv_energy_conservation(table2_design, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--design", str(table2_design),
        "--f-start", "9", "--f-stop", "11", "--points", "1001",
        "--format", "csv", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1002
    for line in lines[1:]:
        _, a, b, c, d = (float(x) for x in line.split(","))
        assert abs((a * a + b * b) + (c * c + d * d) - 1.0) < 1e-9


def test_sweep_single_point_exits_3(table2_design, tmp_path):
    code = main([
        "sweep", "--design", str(table2_design),
        "--f-start", "9", "--f-stop", "11", "--points", "1",
        "--format", "csv", "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 3


def test_sweep_unwritable_out_exits_4(table2_design, tmp_path):
    code = main([
        "sweep", "--design", str(table2_design),
        "--f-start", "9", "--f-stop", "11", "--points", "11",
        "--format", "csv", "--out", str(tmp_path / "no-such-dir" / "s.csv"),
    ])
    assert code == 4


def test_touchstone_sweep_reparses_identically(table2_design, tmp_path):
    out = tmp_path / "sweep.s2p"
    assert main([
        "sweep", "--design", str(table2_design),
        "--f-start", "9", "--f-stop", "11", "--points", "201",
        "--format", "touchstone", "--out", str(out),
    ]) == 0
    design = rn.load_design(table2_design)
    resp = rn.sweep(design.matrix, design.spec, 9e9, 11e9, 201)
    back = rn.read_response(out)
    assert np.max(np.abs(back.s11 - resp.s11)) < 1e-12
    assert np.max(np.abs(back.s21 - resp.s21)) < 1e-12


@pytest.mark.parametrize("fmt, write", [("touchstone", rn.write_touchstone), ("csv", rn.write_csv)])
def test_sweep_writes_the_bytes_of_the_library_writer(fmt, write, table2_design, tmp_path):
    out, ref = tmp_path / "cli.out", tmp_path / "library.out"
    assert main([
        "sweep", "--design", str(table2_design),
        "--f-start", "9", "--f-stop", "11", "--points", "201",
        "--format", fmt, "--out", str(out),
    ]) == 0
    design = rn.load_design(table2_design)
    write(ref, rn.sweep(design.matrix, design.spec, 9e9, 11e9, 201))
    assert out.read_bytes() == ref.read_bytes()


def two_resonator_file(tmp_path, k=0.046, fbw=0.05, f0=10e9):
    m12 = k / fbw
    q1 = 50.0 / m12
    cm = rn.CouplingMatrix(
        m=np.array([[0.0, m12], [m12, 0.0]]), qe1=q1, qen=400.0 * q1
    )
    spec = rn.FilterSpec(order=2, f0_hz=f0, bandwidth_hz=fbw * f0, ripple_db=0.04321)
    resp = rn.sweep(cm, spec, 0.85 * f0, 1.15 * f0, 4001)
    path = tmp_path / "pair.s2p"
    rn.write_touchstone(path, resp)
    return path, resp.grid[1] - resp.grid[0]


def single_resonator_file(tmp_path, qe=18.628, fbw=0.05, f0=10e9):
    q_in = qe * fbw
    cm = rn.CouplingMatrix(m=np.zeros((1, 1)), qe1=q_in, qen=2500.0 * q_in)
    spec = rn.FilterSpec(order=2, f0_hz=f0, bandwidth_hz=fbw * f0, ripple_db=0.04321)
    span = 2.5 * f0 / qe
    resp = rn.sweep(cm, spec, f0 - span, f0 + span, 4001)
    path = tmp_path / "single.s2p"
    rn.write_touchstone(path, resp)
    return path


def test_extract_k_round_trip(tmp_path, capsys):
    path, step = two_resonator_file(tmp_path)
    assert main(["extract", "--response", str(path), "--mode", "k"]) == 0
    out = capsys.readouterr().out
    assert "f_p1" in out and "f_p2" in out  # report echoes frequencies used
    k = float(out.rsplit("=", 1)[1])
    assert abs(k - 0.046) <= 2 * step / 10e9 + 1e-4


def test_extract_k_single_peak_exits_5(tmp_path, capsys):
    path = single_resonator_file(tmp_path)
    assert main(["extract", "--response", str(path), "--mode", "k"]) == 5
    assert "1 peak" in capsys.readouterr().err


def test_extract_qe_round_trip(tmp_path, capsys):
    path = single_resonator_file(tmp_path)
    assert main(["extract", "--response", str(path), "--mode", "qe"]) == 0
    out = capsys.readouterr().out
    qe = float(out.rsplit("=", 1)[1])
    assert qe == pytest.approx(18.628, rel=0.02)


def test_optimize_self_recovery(table2_design, tmp_path, capsys):
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"perturb": 0.10, "seed": 42, "max_iter": 5000}))
    out = tmp_path / "optimized.json"
    code = main([
        "optimize", "--design", str(table2_design),
        "--config", str(cfg), "--out", str(out),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "iter " in text and "cost" in text
    optimized = rn.load_design(out)
    reference = rn.load_design(table2_design)
    for i in range(3):
        assert optimized.matrix.m[i, i + 1] == pytest.approx(
            reference.matrix.m[i, i + 1], abs=1e-3
        )


def spy_on_optimize(monkeypatch):
    """Record the keyword arguments the CLI passes to optimize."""
    seen = []
    optimize = rn.optimize  # read before the patch: the package resolves names lazily

    def spy(problem, **kwargs):
        seen.append(kwargs)
        return optimize(problem, **kwargs)

    monkeypatch.setattr("resonet.optimizer.optimize", spy)
    return seen


@pytest.mark.parametrize("method", ["gradient", "sweep", "nelder-mead"])
def test_optimize_method_from_config(table2_design, tmp_path, monkeypatch, method):
    seen = spy_on_optimize(monkeypatch)
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"perturb": 0.05, "seed": 3, "method": method}))
    out = tmp_path / "optimized.json"
    assert main(["optimize", "--design", str(table2_design), "--config", str(cfg), "--out", str(out)]) == 0
    assert seen[0]["method"] == method
    reference = rn.load_design(table2_design).matrix
    assert rn.load_design(out).matrix.m == pytest.approx(reference.m, abs=5e-3)


def test_optimize_defaults_are_the_library_defaults(table2_design, tmp_path, monkeypatch):
    # A setting the config leaves out is not passed, so optimize's own
    # default applies.
    seen = spy_on_optimize(monkeypatch)
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"perturb": 0.05, "seed": 3, "tol": 1e-9}))
    assert main(["optimize", "--design", str(table2_design), "--config", str(cfg),
                 "--out", str(tmp_path / "o.json")]) == 0
    assert sorted(seen[0]) == ["on_iteration", "tol"]


def test_optimize_zero_max_iter_exits_3(table2_design, tmp_path):
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"max_iter": 0}))
    assert main(["optimize", "--design", str(table2_design), "--config", str(cfg)]) == 3


def test_optimize_unknown_config_key_exits_2(table2_design, tmp_path, capsys):
    # a misspelt max_iter must not run with the default of 2000
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"max_iters": 3, "method": "sweep", "perturb": 0.05, "seed": 1}))
    out = tmp_path / "o.json"
    assert main(["optimize", "--design", str(table2_design), "--config", str(cfg), "--out", str(out)]) == 2
    assert "'max_iters'" in capsys.readouterr().err
    assert not out.exists()


def test_optimize_with_an_overflowing_jacobian_keeps_the_start(tmp_path, capsys):
    # With qe1 = qen = 1e-160 the qe columns of the least-squares Jacobian
    # overflow while S stays finite: the run ends as a stalled one does and
    # the sweep goes on from there, instead of exiting 1 from the SVD.
    design = tmp_path / "tiny-qe.json"
    assert main(["synthesize", "--preset", "xband-4pole", "--out", str(design)]) == 0
    record = json.loads(design.read_text())
    record["matrix"]["qe1"] = record["matrix"]["qen"] = 1e-160
    design.write_text(json.dumps(record))
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"free_parameters": [["qe1"], ["qen"], ["m", 1, 2]], "max_iter": 20}))
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert main(["optimize", "--design", str(design), "--config", str(cfg), "--out", str(out)]) == 0
    assert "converged=False" in capsys.readouterr().out
    start = rn.load_design(design)
    config = rn.CostConfig.from_spec(start.spec)
    assert rn.cost(rn.load_design(out).matrix, config) == pytest.approx(rn.cost(start.matrix, config), rel=1e-12)


@pytest.mark.parametrize(
    "kind, command",
    [
        ("s2p", "analyze"),
        ("s2p", "extract"),
        ("csv", "analyze"),
        ("design", "sweep"),
        ("design", "optimize"),
        ("synthesis config", "synthesize"),
        ("optimizer config", "optimize"),
    ],
)
def test_non_utf8_input_exits_2_naming_the_file(kind, command, table2_config, table2_design, tmp_path, capsys):
    # a 0xff byte used to escape as a UnicodeDecodeError traceback (exit 1)
    opt_config = tmp_path / "opt.json"
    opt_config.write_text(json.dumps({"perturb": 0.05, "seed": 1}))
    inputs = {"design": table2_design, "synthesis config": table2_config, "optimizer config": opt_config}
    for ext, fmt in (("s2p", "touchstone"), ("csv", "csv")):
        inputs[ext] = tmp_path / f"valid.{ext}"
        assert main(["sweep", "--design", str(table2_design), "--f-start", "9", "--f-stop", "11",
                     "--points", "201", "--format", fmt, "--out", str(inputs[ext])]) == 0
    raw = inputs[kind].read_bytes()
    bad = inputs[kind] = tmp_path / f"bad{inputs[kind].suffix}"
    bad.write_bytes(raw[: len(raw) // 2] + b"\xff" + raw[len(raw) // 2 :])
    response = inputs["csv" if kind == "csv" else "s2p"]
    argv = {
        "analyze": ["analyze", "--response", str(response)],
        "extract": ["extract", "--response", str(response), "--mode", "k"],
        "sweep": ["sweep", "--design", str(inputs["design"]), "--f-start", "9", "--f-stop", "11",
                  "--out", str(tmp_path / "s.s2p")],
        "synthesize": ["synthesize", "--config", str(inputs["synthesis config"]), "--out", str(tmp_path / "d.json")],
        "optimize": ["optimize", "--design", str(inputs["design"]), "--config", str(inputs["optimizer config"]),
                     "--out", str(tmp_path / "o.json")],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text (invalid start byte)\n"


def test_optimize_seed_from_config_repeats(table2_design, tmp_path):
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"perturb": 0.05, "seed": 1234}))
    out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
    assert main(["optimize", "--design", str(table2_design), "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["optimize", "--design", str(table2_design), "--config", str(cfg), "--out", str(out2)]) == 0
    m1 = rn.load_design(out1).matrix.m
    m2 = rn.load_design(out2).matrix.m
    assert np.array_equal(m1, m2)


def test_waveguide_preset_report(capsys):
    assert main(["waveguide", "WG16"]) == 0
    out = capsys.readouterr().out
    assert "6.557" in out
    assert "8.2-12.4" in out


def test_waveguide_custom_width(capsys):
    assert main(["waveguide", "--a-mm", "45.72"]) == 0
    out = capsys.readouterr().out
    printed = float(out.split("TE10 cutoff:")[1].split("GHz")[0])
    # TE10 cutoff c / 2a, compared to the four decimals the report prints
    assert printed == pytest.approx(299_792_458.0 / (2 * 45.72e-3) / 1e9, abs=5e-5)


def test_waveguide_unknown_preset_exits_3(capsys):
    assert main(["waveguide", "WR999"]) == 3
    err = capsys.readouterr().err
    assert "WG16" in err and "WR3" in err


def test_waveguide_guided_wavelength(capsys):
    assert main(["waveguide", "WR3", "--at-ghz", "300"]) == 0
    assert "guided wavelength" in capsys.readouterr().out
    assert main(["waveguide", "WR3", "--at-ghz", "100"]) == 3


def test_waveguide_without_arguments_exits_3():
    assert main(["waveguide"]) == 3


@pytest.mark.parametrize("args", [["--a-mm", "inf"], ["--a-mm", "nan"], ["--a-mm", "22.86", "--at-ghz", "inf"]])
def test_waveguide_non_finite_input_exits_3(args, capsys):
    assert main(["waveguide", *args]) == 3
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("site", ["linspace", "_scattering"])
def test_sweep_out_of_memory_exits_3_naming_points(site, table2_design, tmp_path, monkeypatch, capsys):
    # stands in for a grid too large to allocate; nothing large is allocated
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    design = rn.load_design(table2_design)
    monkeypatch.setattr(np if site == "linspace" else rn.response, site, out_of_memory)
    with pytest.raises(rn.InvalidSpecError, match="points = 101 "):
        rn.sweep(design.matrix, design.spec, 9e9, 11e9, 101)
    assert main([
        "sweep", "--design", str(table2_design),
        "--f-start", "9", "--f-stop", "11", "--points", "101",
        "--format", "csv", "--out", str(tmp_path / "s.csv"),
    ]) == 3
    assert "points = 101 " in capsys.readouterr().err


def test_analyze_reports_metrics(table2_design, tmp_path, capsys):
    sweep_file = tmp_path / "sweep.s2p"
    main([
        "sweep", "--design", str(table2_design),
        "--f-start", "9", "--f-stop", "11", "--points", "2001",
        "--format", "touchstone", "--out", str(sweep_file),
    ])
    capsys.readouterr()
    assert main(["analyze", "--response", str(sweep_file), "--level-db", "-20"]) == 0
    out = capsys.readouterr().out
    assert "reflection zeros:  4" in out
    assert "10.0" in out


@pytest.mark.parametrize("f_start, f_stop", [("9.9", "10.1"), ("9.5", "10.1")])
def test_analyze_passband_cut_by_the_grid_exits_5(f_start, f_stop, table2_design, tmp_path, capsys):
    # the 500 MHz passband runs past the grid: the grid edge used to be
    # reported as the band edge, with exit 0
    sweep_file = tmp_path / "sweep.s2p"
    assert main([
        "sweep", "--design", str(table2_design), "--f-start", f_start, "--f-stop", f_stop,
        "--points", "401", "--format", "touchstone", "--out", str(sweep_file),
    ]) == 0
    capsys.readouterr()
    assert main(["analyze", "--response", str(sweep_file), "--level-db", "-20"]) == 5
    assert "edge of the sampled span" in capsys.readouterr().err


def test_analyze_no_passband_exits_5(tmp_path, capsys):
    grid = np.linspace(1e9, 2e9, 51)
    resp = rn.FrequencyResponse(grid=grid, s11=np.ones(51), s21=np.zeros(51))
    path = tmp_path / "flat.csv"
    rn.write_csv(path, resp)
    assert main(["analyze", "--response", str(path), "--level-db", "-20"]) == 5


def test_optimize_perturbation_draws_one_factor_per_key_in_order(table2_design, tmp_path):
    # tol 1.0 stops at iteration 0, so the written design is the perturbed start.
    free = [["m", 1, 2], ["m", 2, 3], ["qe1"], ["qen"]]
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"perturb": 0.05, "seed": 7, "tol": 1.0, "free_parameters": free}))
    out = tmp_path / "perturbed.json"
    assert main(["optimize", "--design", str(table2_design), "--config", str(cfg), "--out", str(out)]) == 0
    base = rn.load_design(table2_design).matrix
    start = rn.load_design(out).matrix
    f12, f23, f1, fn = 1.0 + np.random.default_rng(7).uniform(-0.05, 0.05, size=4)
    m = np.array(base.m)
    m[0, 1] = m[1, 0] = base.m[0, 1] * f12
    m[1, 2] = m[2, 1] = base.m[1, 2] * f23
    assert np.array_equal(start.m, m)
    assert start.qe1 == base.qe1 * f1
    assert start.qen == base.qen * fn


@pytest.mark.parametrize(
    "command, field, value, code",
    [
        ("synthesize", "order", "null", 2),
        ("synthesize", "order", "NaN", 3),
        ("synthesize", "f0_hz", '"10e9"', 2),
        ("synthesize", "fbw", "null", 2),
        ("synthesize", "ripple_db", "Infinity", 3),
        ("sweep", "matrix.qe1", "null", 2),
        ("sweep", "matrix.m", "[[0, 1], [1]]", 2),
        ("sweep", "matrix", "null", 2),
        ("sweep", "polynomials.e_roots", "[[1, 2, 3]]", 2),
        ("optimize", "max_iter", "NaN", 3),
        ("optimize", "tol", "null", 2),
        ("optimize", "perturb", '"big"', 2),
        ("optimize", "perturb", "NaN", 3),
        ("optimize", "perturb", "-0.05", 3),
        ("optimize", "free_parameters", "5", 2),
        ("optimize", "free_parameters", "[5]", 2),
        ("optimize", "free_parameters", '[["m", "a", 2]]', 3),
        ("optimize", "free_parameters", '[["m", true, 2]]', 3),
        ("optimize", "free_parameters", '[["m", 1, true]]', 3),
        ("optimize", "seed", '"abc"', 2),
        ("optimize", "seed", "1.5", 2),
        ("optimize", "allow_cross_couplings", '"no"', 2),
        ("optimize", "allow_cross_couplings", "1", 2),
        ("optimize", "method", "5", 2),
        ("optimize", "method", '"newton"', 3),
        ("sweep", "spec.order", "6", 3),
        ("sweep", "matrix.m", "[[0, 1], [1, 0]]", 3),
        ("sweep", "prototype.g", "[1, 1, 1]", 3),
        ("sweep", "targets.k", "[0.05]", 3),
        ("sweep", "provenance", '"x"', 2),
        ("sweep", "provenance", "null", 2),
        ("optimize", "step_floor", "0", 3),
        ("optimize", "step_floor", "-1e-9", 3),
        ("optimize", "tol", "NaN", 3),
        ("optimize", "seed", "-1", 3),
        ("optimize", "free_parameters", "[]", 3),
        ("optimize", "max_iter", '"x"', 2),
        ("optimize", "step_floor", '"x"', 2),
        ("sweep", "polynomials.epsilon", "Infinity", 3),
        ("sweep", "matrix.m.0.0", "NaN", 3),
    ],
)
def test_malformed_json_value_exits_2_or_3(table2_design, tmp_path, capsys, command, field, value, code):
    argv = malformed_input(table2_design, tmp_path, command, field, value)
    assert main(argv) == code
    assert "error:" in capsys.readouterr().err


def malformed_input(table2_design, tmp_path, command, field, value):
    """The argv of a command whose JSON input has value at the dotted field
    (a number in it indexes a list)."""
    path = tmp_path / "input.json"
    if command == "synthesize":
        record = {"order": 4, "f0_hz": 10e9, "fbw": 0.05, "ripple_db": 0.04321}
        argv = ["synthesize", "--config", str(path), "--out", str(tmp_path / "d.json")]
    elif command == "sweep":
        record = json.loads(table2_design.read_text())
        argv = ["sweep", "--design", str(path), "--f-start", "9", "--f-stop", "11",
                "--out", str(tmp_path / "s.s2p")]
    else:
        record = {"perturb": 0.05, "seed": 1}
        argv = ["optimize", "--design", str(table2_design), "--config", str(path),
                "--out", str(tmp_path / "o.json")]
    # The value is spliced into the JSON text: json.dumps cannot write NaN or
    # Infinity the way a hand-edited file does.
    *parents, leaf = [int(name) if name.isdigit() else name for name in field.split(".")]
    target = record
    for name in parents:
        target = target[name]
    target[leaf] = "VALUE"
    path.write_text(json.dumps(record).replace('"VALUE"', value))
    return argv


@pytest.mark.parametrize(
    "n, error, code", [(7, rn.InvalidSpecError, 3), ("four", rn.ParseError, 2), (None, rn.ParseError, 2)]
)
def test_design_matrix_n_is_read(n, error, code, table2_design, tmp_path, capsys):
    # save_design writes matrix.n; a file whose n disagrees with the matrix,
    # is not an integer or is missing used to sweep with exit 0
    record = json.loads(table2_design.read_text())
    if n is None:
        del record["matrix"]["n"]
    else:
        record["matrix"]["n"] = n
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(record))
    named = "matrix n 7" if n == 7 else "'n'"
    with pytest.raises(error, match=named):
        rn.load_design(path)
    capsys.readouterr()
    assert main(["sweep", "--design", str(path), "--f-start", "9", "--f-stop", "11",
                 "--out", str(tmp_path / "s.s2p")]) == code
    assert named in capsys.readouterr().err


def test_json_nan_exits_3_naming_it(table2_design, tmp_path, capsys):
    # a NaN matrix entry used to be reported as an asymmetric matrix
    assert main(malformed_input(table2_design, tmp_path, "sweep", "matrix.m.0.0", "NaN")) == 3
    assert "input.json: NaN is not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, field, literal",
    [
        ("sweep", "matrix.qe1", "1e400"),
        ("sweep", "matrix.m.0.1", "-1e400"),
        ("synthesize", "f0_hz", "1" + "0" * 400),
        ("optimize", "tol", "1e400"),
    ],
    ids=["qe1 1e400", "m -1e400", "f0_hz of 401 digits", "tol 1e400"],
)
def test_json_number_past_the_float_range_exits_3_naming_it(table2_design, tmp_path, capsys, command, field, literal):
    # float() reads each as +-inf; a qe1 of inf would sweep, and int() would
    # keep the 401 digits for a float conversion to overflow later
    assert main(malformed_input(table2_design, tmp_path, command, field, literal)) == 3
    # a literal past 20 characters is cut to its first 20 and its length
    shown = literal if len(literal) <= 20 else f"{literal[:20]}... ({len(literal)} characters)"
    assert f"input.json: {shown} is not a finite number" in capsys.readouterr().err


def test_config_kinds_are_checked_before_values(table2_design, tmp_path, capsys):
    # perturb's range is checked where it is used, after the read has
    # refused tol's kind
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"perturb": -0.05, "tol": None}))
    assert main(["optimize", "--design", str(table2_design), "--config", str(cfg)]) == 2
    assert "'tol' must be a number" in capsys.readouterr().err


def test_cli_imports_no_private_name():
    # the CLI is a client of the public API: no `from .module import _name`
    tree = ast.parse(Path(cli.__file__).read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []


def test_cli_import_leaves_scipy_signal_and_optimize_unloaded():
    # every resonet process pays for what resonet.cli imports; scipy.optimize
    # loads only inside the Nelder-Mead branch and scipy.signal not at all
    src = os.path.dirname(os.path.dirname(os.path.abspath(rn.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, resonet.cli; print(sorted(m for m in ('scipy.signal', 'scipy.optimize') if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def run_python(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports resonet from this source tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(rn.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_cli_import_loads_no_scipy():
    # scipy.linalg loads only for the zeros of a cross-coupled matrix
    done = run_python("-c", "import sys, resonet.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert done.returncode == 0 and done.stdout.strip() == "[]"


def test_optimize_with_an_overflowing_qe_exits_3_without_a_warning(table2_design, tmp_path):
    # 1 / qe1 overflows: loading the design refuses the qe, by name and with
    # no RuntimeWarning on stderr, before any polynomial or cost is formed
    record = json.loads(table2_design.read_text())
    record["matrix"]["qe1"] = 1e-310
    design = tmp_path / "dq.json"
    design.write_text(json.dumps(record))
    done = run_python("-m", "resonet", "optimize", "--design", str(design), "--out", str(tmp_path / "dq2.json"))
    assert done.returncode == 3
    assert re.fullmatch(r"error: qe1 = 1e-310 is too small: 2 / qe1 overflows\n", done.stderr)


def test_sweep_of_a_band_mapping_to_infinite_omega_exits_3_without_a_warning(table2_design, tmp_path):
    # f0 / f overflows at 1e-318 GHz: the band is refused by its ends, exit 3,
    # with no RuntimeWarning on stderr and no "singular" exit 6
    done = run_python("-m", "resonet", "sweep", "--design", str(table2_design), "--f-start", "1e-318",
                      "--f-stop", "11", "--points", "101", "--out", str(tmp_path / "s.s2p"))
    assert done.returncode == 3
    assert "Warning" not in done.stderr
    assert re.fullmatch(r"error: \S+e-310 to 11000000000.0 Hz maps to omega -inf to \S+, not finite\n", done.stderr)


# Prints whether numpy was loaded after `import resonet, resonet.cli`, the
# exit code of main(argv), and whether numpy was loaded after it.
START_UP_PROBE = (
    "import sys, resonet, resonet.cli; imported = 'numpy' in sys.modules; "
    "code = resonet.cli.main(sys.argv[1:]); print(imported, code, 'numpy' in sys.modules)"
)


@pytest.mark.parametrize(
    "argv, code, loads_numpy",
    [
        (["--version"], 0, False),
        (["-h"], 0, False),
        (["sweep", "-h"], 0, False),
        (["sweep", "--points", "3"], 2, False),
        (["waveguide", "WR3"], 0, False),
        (["synthesize", "--preset", "xband-4pole", "--out", "{tmp}/d.json"], 0, True),
    ],
    ids=["version", "help", "sweep-help", "usage-error", "waveguide", "synthesize"],
)
def test_start_up_loads_numpy_only_for_numerical_commands(argv, code, loads_numpy, tmp_path):
    done = run_python("-c", START_UP_PROBE, *(a.format(tmp=tmp_path) for a in argv))
    assert done.stdout.splitlines()[-1] == f"False {code} {loads_numpy}"


@pytest.mark.parametrize("module", ["resonet", "resonet.cli"])
def test_module_form_runs_the_cli(module, table2_design, tmp_path):
    out = tmp_path / "sweep.s2p"
    argv = ["sweep", "--design", str(table2_design), "--f-start", "9", "--f-stop", "11", "--points", "11",
            "--out", str(out)]
    done = run_python("-m", module, *argv)
    assert done.returncode == 0 and len(rn.read_touchstone(out)) == 11
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    argv[2] = str(bad)
    done = run_python("-m", module, *argv)
    assert done.returncode == 2 and "error:" in done.stderr


def test_design_with_infinite_epsilon_exits_3_and_writes_nothing(table2_design, tmp_path, capsys):
    # a zero coupling cuts the ladder: S21 = 0, eps = inf, which JSON cannot hold
    record = json.loads(table2_design.read_text())
    record["matrix"]["m"][1][2] = record["matrix"]["m"][2][1] = 0.0
    del record["polynomials"]
    cut = tmp_path / "cut.json"
    cut.write_text(json.dumps(record))
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"free_parameters": [["m", 1, 2]], "max_iter": 1}))
    out = tmp_path / "out.json"
    assert main(["optimize", "--design", str(cut), "--config", str(cfg), "--out", str(out)]) == 3
    assert "epsilon is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_optimize_refuses_a_start_with_infinite_epsilon_before_iterating(table2_design, tmp_path, capsys):
    # qe1 = qen = 1e-150 puts epsilon out of range; no step of the free qe brings it back
    record = json.loads(table2_design.read_text())
    record["matrix"]["qe1"] = record["matrix"]["qen"] = 1e-150
    del record["polynomials"]
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps(record))
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"free_parameters": [["qe1"], ["qen"], ["m", 1, 2]], "max_iter": 20}))
    out = tmp_path / "out.json"
    assert main(["optimize", "--design", str(tiny), "--config", str(cfg), "--out", str(out)]) == 3
    printed = capsys.readouterr()
    assert "design.polynomials.epsilon is not finite" in printed.err
    assert "iter" not in printed.out
    assert not out.exists()


def test_optimize_may_close_a_cut_path_through_a_free_zero_coupling(table2_design, tmp_path, capsys):
    # the start's epsilon is infinite, but the zero coupling is free: the run goes on
    record = json.loads(table2_design.read_text())
    record["matrix"]["m"][1][2] = record["matrix"]["m"][2][1] = 0.0
    del record["polynomials"]
    cut = tmp_path / "cut.json"
    cut.write_text(json.dumps(record))
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"free_parameters": [["m", 1, 2], ["m", 2, 3], ["m", 3, 4]], "max_iter": 50}))
    out = tmp_path / "out.json"
    assert main(["optimize", "--design", str(cut), "--config", str(cfg), "--out", str(out)]) == 0
    assert "iter" in capsys.readouterr().out
    assert rn.load_design(out).matrix.m[1, 2] != 0.0


# One instance of every error class resonet exports, with the code the cli
# docstring gives its kind of failure.
DOCUMENTED_EXIT_CODES = [
    (rn.ParseError("p"), 2),
    (rn.InvalidSpecError("i"), 3),
    (rn.UnknownPresetError("WG0", ["WG16"]), 3),
    (rn.BelowCutoffError("b"), 3),
    (rn.InsufficientPeaksError(1, 2), 5),
    (rn.InsufficientSpanError("s"), 5),
    (rn.NoPassbandError("n"), 5),
    (rn.NumericalError("x"), 6),
    (rn.SingularFrequencyError("f"), 6),
]


def test_every_error_class_exits_with_its_documented_code(monkeypatch, capsys):
    exported = {getattr(rn, name) for name in rn.__all__ if name.endswith("Error")} - {rn.ResonetError}
    assert exported == {type(err) for err, _ in DOCUMENTED_EXIT_CODES}
    documented = dict(re.findall(r"(\d) ([a-zA-Z/ ]+)", cli.__doc__.split("Exit codes:")[1]))
    assert sorted(documented) == ["0", "2", "3", "4", "5", "6"]
    for err, code in DOCUMENTED_EXIT_CODES:
        assert type(err).exit_code == code

        def fail(*args, err=err):
            raise err

        monkeypatch.setattr("resonet.waveguide.band_preset", fail)
        assert main(["waveguide", "WG16"]) == code
        assert capsys.readouterr().err == f"error: {err}\n"
