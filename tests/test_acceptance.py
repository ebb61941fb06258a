"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line with the measured numbers once its
assertions hold, so `pytest -v -s tests/test_acceptance.py` doubles as a
release report. Every tolerance is pinned here, not configurable.
"""

import json
import math
import time

import numpy as np
import pytest

import resonet as rn
from oracles import char_poly_from_eigenvalues, s_parameters_cramer
from resonet.cli import main


def ok(num, message):
    print(f"ACCEPTANCE {num:2d} PASS: {message}")


def synth(order, f0, bw, ripple=0.04321):
    return rn.synthesize_design(
        rn.FilterSpec(order=order, f0_hz=f0, bandwidth_hz=bw, ripple_db=ripple)
    )


def test_criterion_01_table2_reproduction():
    t0 = time.perf_counter()
    design = synth(4, 10e9, 0.5e9)
    elapsed = time.perf_counter() - t0
    t = design.targets
    assert t.qe_in == pytest.approx(18.628, abs=0.05)
    assert t.qe_out == pytest.approx(18.628, abs=0.05)
    for got, want in zip(t.k, (0.046, 0.035, 0.046)):
        assert got == pytest.approx(want, abs=1e-3)
    assert elapsed < 0.1
    ok(1, f"Qe={t.qe_in:.3f}, k={[round(k, 4) for k in t.k]}, {elapsed * 1e3:.1f} ms")


def test_criterion_02_table4_reproduction():
    t0 = time.perf_counter()
    design = synth(8, 10e9, 0.5e9)
    elapsed = time.perf_counter() - t0
    t = design.targets
    assert t.qe_in == pytest.approx(20.3, abs=0.1)
    # The reference table prints the two end couplings of this symmetric
    # design with different roundings, 0.04 and 0.041; the computed value
    # 0.0411 shows 0.041 is the three-decimal truth, so the end checks
    # anchor there. The sequence itself must be palindromic.
    want = (0.041, 0.03, 0.028, 0.027, 0.028, 0.03, 0.041)
    for got, target in zip(t.k, want):
        assert got == pytest.approx(target, abs=1e-3)
    for i in range(7):
        assert abs(t.k[i] - t.k[6 - i]) < 1e-12
    assert elapsed < 0.1
    ok(2, f"Qe={t.qe_in:.3f}, k={[round(k, 4) for k in t.k]}, {elapsed * 1e3:.1f} ms")


def test_criterion_03_table5_reproduction():
    t0 = time.perf_counter()
    design = synth(4, 300e9, 0.02 * 300e9)
    elapsed = time.perf_counter() - t0
    t = design.targets
    assert t.qe_in == pytest.approx(46.57, abs=0.1)
    for got, want in zip(t.k, (0.018, 0.014, 0.018)):
        assert got == pytest.approx(want, abs=1e-3)
    assert elapsed < 0.1
    ok(3, f"Qe={t.qe_in:.3f}, k={[round(k, 4) for k in t.k]}, {elapsed * 1e3:.1f} ms")


def test_criterion_04_response_shape():
    design = synth(4, 10e9, 0.5e9)
    resp = rn.sweep(design.matrix, design.spec, 9e9, 11e9, 2001)
    s11_db = 20 * np.log10(np.maximum(np.abs(resp.s11), 1e-300))
    zeros = [
        resp.grid[i]
        for i in range(1, 2000)
        if s11_db[i] < s11_db[i - 1] and s11_db[i] < s11_db[i + 1] and s11_db[i] <= -40
    ]
    in_window = [f for f in zeros if 9.75e9 <= f <= 10.25e9]
    assert len(zeros) == 4 and len(in_window) == 4
    metrics = rn.analyze_response(resp, -20.0)
    assert metrics.reflection_zero_count == 4
    assert metrics.max_inband_s11_db <= -20.0 + 0.1
    ok(4, f"4 reflection zeros at {[round(f / 1e9, 3) for f in in_window]} GHz, "
          f"max in-band |S11| {metrics.max_inband_s11_db:.2f} dB")


def test_criterion_05_energy_conservation():
    rng = np.random.default_rng(2026)
    total = 10_000
    worst = 0.0
    per_order = [total // 7] * 6 + [total - 6 * (total // 7)]
    for n, count in zip(range(2, 9), per_order):
        m = rng.normal(size=(count, n, n))
        m = (m + np.transpose(m, (0, 2, 1))) / 2.0
        qe1 = rng.uniform(0.2, 5.0, count)
        qen = rng.uniform(0.2, 5.0, count)
        omega = rng.uniform(-5.0, 5.0, count)
        a = (-1j) * m + (1j * omega)[:, None, None] * np.eye(n)
        a[:, 0, 0] += 1.0 / qe1
        a[:, -1, -1] += 1.0 / qen
        rhs = np.zeros((count, n), dtype=complex)
        rhs[:, 0] = 1.0
        # rhs[..., None]: a stack of vectors, not one (count, n) matrix
        x = np.linalg.solve(a, rhs[..., None])[..., 0]
        s11 = 1.0 - (2.0 / qe1) * x[:, 0]
        s21 = (2.0 / np.sqrt(qe1 * qen)) * x[:, -1]
        worst = max(worst, np.abs(np.abs(s11) ** 2 + np.abs(s21) ** 2 - 1.0).max())
    assert worst < 1e-10
    ok(5, f"{total} random lossless cases, worst | |S11|^2+|S21|^2 - 1 | = {worst:.2e}")


def test_criterion_06_path_equivalence():
    rng = np.random.default_rng(606)
    worst_rel = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        m = rng.normal(size=(n, n))
        m = (m + m.T) / 2.0
        cm = rn.CouplingMatrix(m=m, qe1=float(rng.uniform(0.2, 5)), qen=float(rng.uniform(0.2, 5)))
        s = 1j * rng.uniform(-5, 5)
        a11, a21 = rn.s_parameters(cm, s)
        b11, b21 = s_parameters_cramer(cm, s)
        worst_rel = max(
            worst_rel,
            abs(a11 - b11) / max(abs(a11), abs(b11), 1e-15),
            abs(a21 - b21) / max(abs(a21), abs(b21), 1e-15),
        )
    assert worst_rel < 1e-9

    worst_poly = 0.0
    for name in rn.bundled_design_names():
        spec = rn.bundled_filter_spec(name)
        cm = rn.from_couplings(rn.spec_to_couplings(spec), spec.fbw)
        cp = rn.extract_polynomials(cm)
        for omega in np.linspace(-3, 3, 201):
            p11, p21 = rn.response_from_polynomials(cp, 1j * omega)
            s11, s21 = rn.s_parameters(cm, 1j * omega)
            worst_poly = max(worst_poly, abs(p11 - abs(s11)), abs(p21 - abs(s21)))
    assert worst_poly < 1e-7
    ok(6, f"inverse vs cofactor worst rel {worst_rel:.2e} (1000 cases); "
          f"polynomial vs matrix worst {worst_poly:.2e} (3 bundled designs)")


def test_criterion_07_eigenvalue_machinery():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        poly = char_poly_from_eigenvalues(np.linalg.eigvals(b))
        for _ in range(5):
            s = 3.0 * math.sqrt(n) * np.exp(1j * rng.uniform(0, 2 * math.pi))
            direct = np.linalg.det(s * np.eye(n) - b)
            worst = max(worst, abs(poly(s) - direct) / abs(direct))
    assert worst < 1e-10

    design = synth(4, 10e9, 0.5e9)
    cp = design.polynomials
    got = sorted(r.imag for r in cp.f_roots)
    want = sorted(
        s * math.cos(a) for a in (math.pi / 8, 3 * math.pi / 8) for s in (1, -1)
    )
    assert np.allclose(got, want, atol=1e-3)
    assert all(r.real < 0 for r in cp.e_roots)
    ok(7, f"Vieta vs determinant worst rel {worst:.2e}; 4-pole reflection zeros "
          f"match the closed form to {max(abs(a - b) for a, b in zip(got, want)):.1e}")


def test_criterion_08_extraction_round_trip():
    f0, fbw = 10e9, 0.05
    spec = rn.FilterSpec(order=2, f0_hz=f0, bandwidth_hz=fbw * f0, ripple_db=0.04321)
    worst = 0.0
    for k_design in [round(0.01 * i, 2) for i in range(1, 11)]:
        m12 = k_design / fbw
        q1 = 50.0 / m12
        cm = rn.CouplingMatrix(
            m=np.array([[0.0, m12], [m12, 0.0]]), qe1=q1, qen=400.0 * q1
        )
        resp = rn.sweep(cm, spec, 0.85 * f0, 1.15 * f0, 1001)
        peaks = rn.find_peaks(resp, expected=2)
        k = rn.extract_k(rn.PeakPair(f_p1=peaks[0], f_p2=peaks[1]))
        step = resp.grid[1] - resp.grid[0]
        err = abs(k - k_design)
        assert err <= 2 * step / f0 + 1e-4
        worst = max(worst, err)

    qe_errs = []
    for qe, f0x, fbwx in ((18.628, 10e9, 0.05), (46.57, 300e9, 0.02)):
        spec_x = rn.FilterSpec(order=2, f0_hz=f0x, bandwidth_hz=fbwx * f0x, ripple_db=0.04321)
        q_in = qe * fbwx
        cm = rn.CouplingMatrix(m=np.zeros((1, 1)), qe1=q_in, qen=2500.0 * q_in)
        span = 2.5 * f0x / qe
        resp = rn.sweep(cm, spec_x, f0x - span, f0x + span, 4001)
        got = rn.extract_qe(resp, float(rn.find_peaks(resp, expected=1)[0]))
        assert got == pytest.approx(qe, rel=0.02)
        qe_errs.append(abs(got - qe) / qe)
    ok(8, f"k round trip worst err {worst:.2e} over k=0.01..0.1; "
          f"Qe errors {qe_errs[0] * 100:.2f}% / {qe_errs[1] * 100:.2f}%")


def test_criterion_09_optimizer_self_recovery():
    design = synth(4, 10e9, 0.5e9)
    cm = design.matrix
    rng = np.random.default_rng(99)
    m = np.array(cm.m)
    for i in range(3):
        m[i, i + 1] *= 1.0 + rng.uniform(-0.10, 0.10)
        m[i + 1, i] = m[i, i + 1]
    problem = rn.OptimizationProblem(
        initial=rn.CouplingMatrix(m=m, qe1=cm.qe1, qen=cm.qen),
        spec=design.spec,
        free_parameters=rn.ladder_free_parameters(4),
        cost_config=rn.CostConfig.from_spec(design.spec),
    )
    costs = []
    t0 = time.perf_counter()
    result = rn.optimize(problem, on_iteration=lambda i, c, s: costs.append(c))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    assert result.final_cost < 1e-8
    worst = max(abs(result.final.m[i, i + 1] - cm.m[i, i + 1]) for i in range(3))
    assert worst < 1e-3
    assert all(b <= a for a, b in zip(costs, costs[1:]))
    ok(9, f"recovered couplings to {worst:.1e} in {result.iterations} sweeps, "
          f"cost {result.final_cost:.1e}, {elapsed:.2f} s, monotone descent")


def test_criterion_10_waveguide():
    wg16 = rn.band_preset("WG16")
    assert wg16.cutoff == pytest.approx(6.557e9, rel=1e-3)
    assert wg16.cutoff == pytest.approx(6.56e9, rel=1e-3)
    wr3 = rn.band_preset("WR3")
    assert wr3.cutoff == pytest.approx(196.71e9, abs=0.01e9)
    with pytest.raises(rn.BelowCutoffError):
        rn.guided_wavelength(wr3.a, 100e9)
    with pytest.raises(rn.BelowCutoffError):
        rn.guided_wavelength(wg16.a, wg16.cutoff)
    ok(10, f"WG16 cutoff {wg16.cutoff / 1e9:.4f} GHz, WR3 cutoff "
           f"{wr3.cutoff / 1e9:.3f} GHz, below-cutoff queries rejected")


def test_criterion_11_io_round_trips_and_exit_codes(tmp_path):
    # design-file round trip
    design = synth(4, 10e9, 0.5e9)
    dpath = tmp_path / "design.json"
    rn.save_design(design, dpath)
    loaded = rn.load_design(dpath)
    assert np.array_equal(loaded.matrix.m, design.matrix.m)
    assert loaded.targets.k == design.targets.k
    assert loaded.polynomials.epsilon == design.polynomials.epsilon

    # Touchstone round trip
    resp = rn.sweep(design.matrix, design.spec, 9e9, 11e9, 201)
    tpath = tmp_path / "sweep.s2p"
    rn.write_touchstone(tpath, resp)
    back = rn.read_touchstone(tpath)
    assert np.max(np.abs(back.grid - resp.grid) / resp.grid) < 1e-12
    assert np.max(np.abs(back.s11 - resp.s11)) < 1e-12
    assert np.max(np.abs(back.s21 - resp.s21)) < 1e-12

    # exit code 0: a working synthesize
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"order": 4, "f0_hz": 10e9, "bandwidth_hz": 0.5e9, "ripple_db": 0.04321}))
    assert main(["synthesize", "--config", str(cfg), "--out", str(tmp_path / "d.json")]) == 0

    # exit code 2: malformed config
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["synthesize", "--config", str(bad), "--out", str(tmp_path / "x.json")]) == 2

    # exit code 3: invalid grid
    assert main([
        "sweep", "--design", str(tmp_path / "d.json"),
        "--f-start", "9", "--f-stop", "11", "--points", "1",
        "--format", "csv", "--out", str(tmp_path / "s.csv"),
    ]) == 3

    # exit code 4: unwritable output
    assert main([
        "sweep", "--design", str(tmp_path / "d.json"),
        "--f-start", "9", "--f-stop", "11", "--points", "11",
        "--format", "csv", "--out", str(tmp_path / "nope" / "s.csv"),
    ]) == 4

    # exit code 5: single resonator cannot yield a peak pair
    single = rn.sweep(
        rn.CouplingMatrix(m=np.zeros((1, 1)), qe1=0.9314, qen=2500 * 0.9314),
        design.spec, 8.7e9, 11.3e9, 2001,
    )
    spath = tmp_path / "single.csv"
    rn.write_csv(spath, single)
    assert main(["extract", "--response", str(spath), "--mode", "k"]) == 5

    # exit code 3 again: a denormal external Q is refused when the design loads
    record = json.loads(dpath.read_text())
    record["matrix"]["qe1"] = 5e-324
    denormal_path = tmp_path / "denormal.json"
    denormal_path.write_text(json.dumps(record))
    assert main([
        "sweep", "--design", str(denormal_path),
        "--f-start", "9", "--f-stop", "11", "--points", "11",
        "--format", "csv", "--out", str(tmp_path / "denormal.csv"),
    ]) == 3

    # exit code 6: an uncoupled resonator tuned to f0, a grid point, makes
    # the filter matrix exactly singular there
    record = json.loads(dpath.read_text())
    for i in range(4):
        record["matrix"]["m"][1][i] = record["matrix"]["m"][i][1] = 0.0
    sick_path = tmp_path / "sick.json"
    sick_path.write_text(json.dumps(record))
    for points in ("11", "1001"):  # the grid holds 10 GHz either way
        assert main([
            "sweep", "--design", str(sick_path),
            "--f-start", "9", "--f-stop", "11", "--points", points,
            "--format", "csv", "--out", str(tmp_path / "sick.csv"),
        ]) == 6

    ok(11, "design and Touchstone round trips lossless; exit codes 0/2/3/4/5/6 verified")
