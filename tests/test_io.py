import json
import os

import numpy as np
import pytest

import resonet as rn
from resonet.errors import InvalidSpecError, ParseError
from resonet.touchstone import _BLOCK_ROWS, CSV_HEADER


@pytest.fixture()
def swept(xband4_design, xband4):
    return rn.sweep_two_port(xband4_design.matrix, xband4, 9e9, 11e9, 201)


def test_design_round_trip_is_exact(xband4_design, tmp_path):
    path = tmp_path / "design.json"
    rn.save_design(xband4_design, path)
    loaded = rn.load_design(path)
    d = xband4_design
    assert loaded.spec == d.spec
    assert loaded.prototype.g == d.prototype.g
    assert loaded.targets.qe_in == d.targets.qe_in
    assert loaded.targets.k == d.targets.k
    assert np.array_equal(loaded.matrix.m, d.matrix.m)
    assert loaded.matrix.qe1 == d.matrix.qe1
    assert loaded.matrix.qen == d.matrix.qen
    assert loaded.polynomials.e_roots == d.polynomials.e_roots
    assert loaded.polynomials.f_roots == d.polynomials.f_roots
    assert loaded.polynomials.p_roots == d.polynomials.p_roots
    assert loaded.polynomials.epsilon == d.polynomials.epsilon
    assert loaded.provenance == d.provenance


def test_second_round_trip_is_stable(xband4_design, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    rn.save_design(xband4_design, p1)
    rn.save_design(rn.load_design(p1), p2)
    assert p1.read_text() == p2.read_text()


def test_design_file_missing_key(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"spec": {"order": 4}}))
    with pytest.raises(ParseError, match="f0_hz"):
        rn.load_design(path)


def test_malformed_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "order": 4,\n  oops\n}\n')
    with pytest.raises(ParseError, match="line 3"):
        rn.load_design(path)


def test_config_parsing(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"order": 4, "f0_hz": 10e9, "bandwidth_hz": 0.5e9, "ripple_db": 0.04321}))
    spec = rn.load_filter_config(path)
    assert spec == rn.FilterSpec(order=4, f0_hz=10e9, bandwidth_hz=0.5e9, ripple_db=0.04321)


def test_config_accepts_fbw(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"order": 4, "f0_hz": 300e9, "fbw": 0.02, "ripple_db": 0.04321}))
    spec = rn.load_filter_config(path)
    assert spec.bandwidth_hz == pytest.approx(6e9)


def test_config_missing_key_names_it(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"f0_hz": 10e9, "bandwidth_hz": 0.5e9, "ripple_db": 0.04321}))
    with pytest.raises(ParseError, match="order"):
        rn.load_filter_config(path)


def test_bundled_designs():
    assert rn.bundled_design_names() == ("xband-4pole", "xband-8pole", "yband-4pole")
    spec = rn.bundled_filter_spec("xband-4pole")
    assert (spec.order, spec.f0_hz, spec.bandwidth_hz) == (4, 10e9, 0.5e9)
    spec = rn.bundled_filter_spec("yband-4pole")
    assert spec.f0_hz == 300e9
    assert spec.fbw == pytest.approx(0.02)
    record = rn.bundled_design("xband-8pole")
    dims = record["reference_dimensions_mm"]["coupled_resonator_design"]
    assert dims["coupling_septa_s"][0] == 5.57


def test_atomic_save_leaves_no_partial_file(xband4_design, tmp_path):
    target = tmp_path / "missing-dir" / "design.json"
    with pytest.raises(OSError):
        rn.save_design(xband4_design, target)
    assert not target.exists()


def test_touchstone_round_trip(swept, tmp_path):
    resp, s12, s22 = swept
    path = tmp_path / "sweep.s2p"
    rn.write_touchstone(path, resp.grid, resp.s11, resp.s21, s12, s22)
    back = rn.read_touchstone(path)
    assert np.max(np.abs(back.grid - resp.grid) / resp.grid) < 1e-12
    assert np.max(np.abs(back.s11 - resp.s11)) < 1e-12
    assert np.max(np.abs(back.s21 - resp.s21)) < 1e-12
    assert np.max(np.abs(back.s12 - s12)) < 1e-12
    assert np.max(np.abs(back.s22 - s22)) < 1e-12


def test_touchstone_format(swept, tmp_path):
    resp, s12, s22 = swept
    path = tmp_path / "sweep.s2p"
    rn.write_touchstone(path, resp.grid, resp.s11, resp.s21, s12, s22)
    lines = path.read_text().splitlines()
    assert lines[0] == "# GHz S RI R 50"
    assert len(lines) == 1 + len(resp)
    assert len(lines[1].split()) == 9
    first_ghz = float(lines[1].split()[0])
    assert first_ghz == pytest.approx(9.0)


def test_touchstone_reader_handles_units_and_comments(tmp_path):
    path = tmp_path / "data.s2p"
    path.write_text(
        "! fixture data\n"
        "# MHz S RI R 50\n"
        "\n"
        "9000 0.1 0.0 0.9 0.0 0.9 0.0 0.1 0.0 ! row comment\n"
        "   \t\n"
        "! between rows\n"
        "9100\t0.2 0.0  0.8 0.0 0.8 0.0 0.2 0.0\n"
    )
    resp = rn.read_touchstone(path)
    assert resp.grid[0] == pytest.approx(9.0e9)
    assert resp.s21[1] == pytest.approx(0.8)


def test_touchstone_reader_uses_the_first_option_line_only(tmp_path):
    # Touchstone v1.1: option lines after the first are void
    path = tmp_path / "data.s2p"
    path.write_text(
        "# GHz S RI R 50\n"
        "9 0 0 0 0 0 0 0 0\n"
        "# MHz S RI R 50\n"
        "9.1 0 0 0 0 0 0 0 0\n"
    )
    assert np.array_equal(rn.read_touchstone(path).grid, [9e9, 9.1e9])
    path.write_text("! header\n9 0 0 0 0 0 0 0 0\n# MHz S RI R 50\n9.1 0 0 0 0 0 0 0 0\n")
    with pytest.raises(ParseError, match="line 3: the option line must precede"):
        rn.read_touchstone(path)


def test_touchstone_reader_rejects_ma_format(tmp_path):
    path = tmp_path / "data.s2p"
    path.write_text("# GHz S MA R 50\n9 1 0 1 0 1 0 1 0\n")
    with pytest.raises(ParseError, match="RI"):
        rn.read_touchstone(path)


def test_touchstone_reader_rejects_descending(tmp_path):
    path = tmp_path / "data.s2p"
    path.write_text("# GHz S RI R 50\n10 0 0 0 0 0 0 0 0\n9 0 0 0 0 0 0 0 0\n")
    with pytest.raises(ParseError, match="increasing"):
        rn.read_touchstone(path)


def test_touchstone_reader_rejects_bad_columns(tmp_path):
    path = tmp_path / "data.s2p"
    path.write_text("# GHz S RI R 50\n9 0 0 0\n")
    with pytest.raises(ParseError, match="9 columns"):
        rn.read_touchstone(path)


@pytest.fixture(scope="module")
def swept_10k(xband4_design, xband4, tmp_path_factory):
    """A 10k-point sweep written as .s2p and .csv."""
    resp, s12, s22 = rn.sweep_two_port(xband4_design.matrix, xband4, 9e9, 11e9, 10_000)
    folder = tmp_path_factory.mktemp("swept_10k")
    ts, cs = folder / "sweep.s2p", folder / "sweep.csv"
    rn.write_touchstone(ts, resp.grid, resp.s11, resp.s21, s12, s22)
    rn.write_csv(cs, resp)
    return ts, cs


def reference_rows(path, sep):
    """Every data row of a file written by resonet, one float() per token."""
    lines = path.read_text().splitlines()[1:]
    return np.array([[float(tok) for tok in line.split(sep)] for line in lines])


def test_array_reader_equals_the_per_token_parse(swept_10k):
    assert 2 * _BLOCK_ROWS < 10_000  # three blocks: both boundaries are compared
    for path, sep in zip(swept_10k, (None, ",")):
        data = reference_rows(path, sep)
        resp = rn.read_response(path)
        scale = 1e9 if sep is None else 1.0
        assert np.array_equal(resp.grid, data[:, 0] * scale)
        columns = [resp.s11, resp.s21] + ([resp.s12, resp.s22] if sep is None else [])
        for i, column in enumerate(columns):
            assert np.array_equal(column.real, data[:, 1 + 2 * i])
            assert np.array_equal(column.imag, data[:, 2 + 2 * i])


# the last row of the first block, the first of the second, one in the third
@pytest.mark.parametrize("lineno", [2, 5000, _BLOCK_ROWS + 1, _BLOCK_ROWS + 2, 2 * _BLOCK_ROWS + 9, 10_001])
@pytest.mark.parametrize("bad", ["0.5x", "", "1,5", "nan nan"])
def test_array_reader_names_the_bad_line(swept_10k, tmp_path, lineno, bad):
    for path, sep in zip(swept_10k, (" ", ",")):
        lines = path.read_text().splitlines()
        tokens = lines[lineno - 1].split(sep)
        tokens[3] = bad
        lines[lineno - 1] = sep.join(tokens)
        if lineno < len(lines):
            lines[-1] = "garbage"  # a later bad row, in a later block or the same one
        broken = tmp_path / path.name
        broken.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"^line {lineno}: "):
            rn.read_response(broken)


@pytest.mark.parametrize("suffix", [".s2p", ".csv"])
def test_short_and_long_rows_are_named_even_when_the_total_fits(swept_10k, tmp_path, suffix):
    # one row short and the next one long: the token count is still a
    # whole number of rows
    path = swept_10k[suffix == ".csv"]
    sep = "," if suffix == ".csv" else " "
    width = 5 if suffix == ".csv" else 9
    lines = path.read_text().splitlines()
    short, long_ = lines[100].split(sep), lines[101].split(sep)
    lines[100], lines[101] = sep.join(short[:-1]), sep.join(long_ + short[-1:])
    broken = tmp_path / path.name
    broken.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"^line 101: expected {width} columns, got {width - 1}$"):
        rn.read_response(broken)
    lines[100], lines[101] = lines[101], lines[100]
    broken.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"^line 101: expected {width} columns, got {width + 1}$"):
        rn.read_response(broken)


def test_csv_round_trip_and_header(swept, tmp_path):
    resp, _, _ = swept
    path = tmp_path / "sweep.csv"
    rn.write_csv(path, resp)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(resp)
    back = rn.read_csv(path)
    assert np.max(np.abs(back.s11 - resp.s11)) < 1e-12
    assert np.max(np.abs(back.s21 - resp.s21)) < 1e-12
    assert back.s12 is None and back.s22 is None


def test_written_bytes_are_pinned(tmp_path):
    grid = np.array([9e9, 9.999999999e9, 1.1e10])
    s11 = np.array([0.1 + 0.2j, -1 / 3, complex(0.25, -0.5)])
    s21 = np.array([complex(-0.0, 0.7), 0.9 - 1e-17j, 2**-0.5])
    s22 = np.array([-0.5j, 1e-300 + 0j, 0.125])
    ts, cs = tmp_path / "fixed.s2p", tmp_path / "fixed.csv"
    rn.write_touchstone(ts, grid, s11, s21, s21, s22)
    rn.write_csv(cs, rn.FrequencyResponse(grid=grid, s11=s11, s21=s21))
    assert ts.read_text() == (
        "# GHz S RI R 50\n"
        "9 0.10000000000000001 0.20000000000000001 -0 0.69999999999999996 "
        "-0 0.69999999999999996 -0 -0.5\n"
        "9.9999999989999999 -0.33333333333333331 0 0.90000000000000002 -1.0000000000000001e-17 "
        "0.90000000000000002 -1.0000000000000001e-17 1e-300 0\n"
        "11 0.25 -0.5 0.70710678118654757 0 0.70710678118654757 0 0.125 0\n"
    )
    assert cs.read_text() == (
        "freq_hz,s11_re,s11_im,s21_re,s21_im\n"
        "9000000000,0.10000000000000001,0.20000000000000001,-0,0.69999999999999996\n"
        "9999999999,-0.33333333333333331,0,0.90000000000000002,-1.0000000000000001e-17\n"
        "11000000000,0.25,-0.5,0.70710678118654757,0\n"
    )


def test_touchstone_writer_rejects_unequal_columns(swept, tmp_path):
    resp, s12, s22 = swept
    path = tmp_path / "short.s2p"
    with pytest.raises(InvalidSpecError, match=r"\[201, 201, 201, 1, 201\]"):
        rn.write_touchstone(path, resp.grid, resp.s11, resp.s21, s12[:1], s22)
    assert not path.exists()


def test_csv_header_enforced(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("freq,s11\n1,0\n")
    with pytest.raises(ParseError, match="header"):
        rn.read_csv(path)


def test_read_response_dispatch(swept, tmp_path):
    resp, s12, s22 = swept
    ts = tmp_path / "sweep.s2p"
    cs = tmp_path / "sweep.csv"
    rn.write_touchstone(ts, resp.grid, resp.s11, resp.s21, s12, s22)
    rn.write_csv(cs, resp)
    assert np.max(np.abs(rn.read_response(ts).s21 - rn.read_response(cs).s21)) < 1e-12


def test_design_spec_may_give_fbw(xband4_design, tmp_path):
    # the design spec is read like a synthesis config
    record = rn.designfile.design_to_dict(xband4_design)
    spec = record["spec"]
    spec["fbw"] = spec.pop("bandwidth_hz") / spec["f0_hz"]
    path = tmp_path / "design.json"
    path.write_text(json.dumps(record))
    assert rn.load_design(path).spec.bandwidth_hz == pytest.approx(xband4_design.spec.bandwidth_hz, rel=1e-15)
