"""The benchmark workloads: seeded inputs, one op, and the correctness gate.

Each workload turns a seed and a run length into a fixed list of passes; a
pass is a fixed mix of ops. The number of passes depends only on the run
length, never on how fast the machine or the program is, so two runs with
the same arguments do the same work.
`run(op)` is the timed call into `resonet`; `check(op, result)` raises
`GateFailure` when the output is wrong. Nothing here edits the program: the
inputs are plain numbers and files, and the program is reached through its
public functions or its command line.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import resource
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass

import numpy as np

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCHER = os.path.join(HERE, "launcher.py")

RIPPLE_DB = 0.04321
# The three bundled designs, restated here so the checks do not read the
# program's own data files: (order, f0 in Hz, bandwidth in Hz).
PRESETS = {
    "xband-4pole": (4, 10.0e9, 0.5e9),
    "xband-8pole": (8, 10.0e9, 0.5e9),
    "yband-4pole": (4, 300.0e9, 6.0e9),
}

TOL = 1e-10  # optimizer target cost
# Refined matrix vs the unperturbed synthesized one, relative to the largest
# coupling (qe relative to itself). The optimizer stops once cost <= TOL,
# which leaves entry errors near 1e-4 when both qe are free.
MATCH_RTOL = 1e-3
# Unitarity, reciprocity and agreement with the reference solve, per point.
SWEEP_ATOL = 1e-10
# A Chebyshev synthesis check loose enough for both ripple constants
# (17.37 and 40/ln 10) that ROADMAP item 0 leaves unresolved.
SYNTH_RTOL = 1e-3
CHILD_TIMEOUT_S = 120.0


class GateFailure(Exception):
    """An op returned, but its output failed the correctness gate."""


def digest(obj) -> str:
    """sha256 of a canonical JSON form (floats as exact reprs)."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=repr).encode()).hexdigest()


# -- the benchmark's own reference numerics ---------------------------------


def chebyshev_ladder(order: int, ripple_db: float = RIPPLE_DB):
    """Normalized ladder couplings and qe of the Chebyshev prototype."""
    beta = math.log(1.0 / math.tanh(ripple_db * math.log(10.0) / 40.0))
    gamma = math.sinh(beta / (2 * order))
    a = [math.sin((2 * i - 1) * math.pi / (2 * order)) for i in range(1, order + 1)]
    b = [gamma**2 + math.sin(i * math.pi / order) ** 2 for i in range(1, order + 1)]
    g = [1.0, 2.0 * a[0] / gamma]
    for i in range(2, order + 1):
        g.append(4.0 * a[i - 2] * a[i - 1] / (b[i - 2] * g[i - 1]))
    g.append(1.0 / math.tanh(beta / 4.0) ** 2 if order % 2 == 0 else 1.0)
    m = np.zeros((order, order))
    for i in range(1, order):
        m[i - 1, i] = m[i, i - 1] = 1.0 / math.sqrt(g[i] * g[i + 1])
    return m, g[0] * g[1], g[order] * g[order + 1]


def prototype_omega(f_hz, f0_hz, fbw):
    f = np.asarray(f_hz, dtype=float)
    return (f / f0_hz - f0_hz / f) / fbw


def reference_s(m, qe1, qen, omega):
    """S11, S21 and S12 of the loaded coupling matrix at prototype
    frequencies omega, by one dense solve per point."""
    n = m.shape[0]
    out = np.empty((len(omega), 3), dtype=complex)
    rhs = np.zeros((n, 2), dtype=complex)
    rhs[0, 0] = rhs[-1, 1] = 1.0
    c = 2.0 / math.sqrt(qe1 * qen)
    for i, w in enumerate(omega):
        a = -1j * np.asarray(m, dtype=complex) + 1j * w * np.eye(n)
        a[0, 0] += 1.0 / qe1
        a[-1, -1] += 1.0 / qen
        x = np.linalg.solve(a, rhs)
        out[i] = (1.0 - 2.0 / qe1 * x[0, 0], c * x[-1, 0], c * x[0, 1])
    return out


def check_two_port(grid, s11, s21, s12, m, qe1, qen, f0, fbw, rng, samples=32):
    """Unitarity and reciprocity on every point, plus agreement with the
    reference solve at `samples` random points."""
    energy = np.abs(np.abs(s11) ** 2 + np.abs(s21) ** 2 - 1.0).max()
    if not energy <= SWEEP_ATOL:
        raise GateFailure(f"energy conservation off by {energy:.3e}")
    recip = np.abs(s12 - s21).max()
    if not recip <= SWEEP_ATOL:
        raise GateFailure(f"|S12 - S21| = {recip:.3e}")
    idx = rng.choice(len(grid), size=min(samples, len(grid)), replace=False)
    ref = reference_s(m, qe1, qen, prototype_omega(grid[idx], f0, fbw))
    got = np.stack([s11[idx], s21[idx], s12[idx]], axis=1)
    err = np.abs(got - ref).max()
    if not err <= SWEEP_ATOL:
        raise GateFailure(f"sweep differs from the reference solve by {err:.3e}")


def check_match(m, qe1, qen, m0, qe10, qen0, what):
    err = max(
        np.abs(np.asarray(m) - m0).max() / np.abs(m0).max(),
        abs(qe1 - qe10) / qe10,
        abs(qen - qen0) / qen0,
    )
    if not err <= MATCH_RTOL:
        raise GateFailure(f"{what} differs from the unperturbed matrix by {err:.3e} (relative)")


# -- shared shapes -----------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One unit of work; `label` names its class in the mix."""

    label: str
    data: object


class Workload:
    # Seconds of op time one pass takes at this commit on a 2-core x86-64
    # VM; a run of S seconds executes ceil(S / pass_s) passes.
    pass_s: float
    # Op times are scaled to a reference speed by this kernel (calibrate.py).
    kernel = calibrate.LapackKernel

    def setup(self, seed: int, seconds: float, tiny: bool = False) -> None:
        """Import, generate inputs from the seed and warm up."""
        raise NotImplementedError

    def passes_for(self, seconds: float, tiny: bool) -> int:
        return 1 if tiny else max(1, math.ceil(seconds / self.pass_s))

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result) -> None:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def trace_on(self, tracer) -> None:
        from layers import WRAPS

        tracer.install(WRAPS)

    def trace_off(self, tracer) -> None:
        tracer.uninstall()

    def after_op(self, tracer, op_span: int) -> None:
        pass

    def close(self) -> None:
        pass


def _import_resonet():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import resonet
    import resonet.optimizer
    import resonet.response

    return resonet


def _spec_for(rn, design: str):
    if design in PRESETS:
        return rn.bundled_filter_spec(design)
    order = int(design.rsplit("-", 1)[1])
    return rn.FilterSpec(order=order, f0_hz=10.0e9, bandwidth_hz=0.5e9, ripple_db=RIPPLE_DB)


# -- tune --------------------------------------------------------------------

# (design, both qe free, mirror-symmetric perturbation). The order-8
# preset appears three times (three independent perturbations), with as many
# faster classes below it as slower ones above, so that in a mix sorted by op
# time the median op falls in the middle of that low-variance class rather
# than at a class boundary. Both qe are freed only at order 4: with qe free
# the sweep method needs about 1000 iterations there, but at order 8 it needs
# 1200 to max_iter (6-18 s), too long for one op of a 20 s run.
# The mirror-symmetric problems, which run the palindromic-orbit path, are
# order 4 only: from symmetric starts at orders 6, 8 and 12 `optimize` can
# stall at cost ~0.025 and report converged (a defect of the program, see
# README), and the benchmark's ops must not fail.
TUNE_MIX = (
    ("xband-4pole", False, False),
    ("xband-4pole", False, True),
    ("yband-4pole", True, True),
    ("xband-8pole", False, False),
    ("xband-8pole", False, False),
    ("xband-8pole", False, False),
    ("synthetic-6", False, False),
    ("synthetic-12", False, False),
    ("synthetic-16", False, False),
)
TUNE_TINY_MIX = (("xband-4pole", False, True), ("synthetic-6", False, False))
PERTURB = 0.05


class Tune(Workload):
    """One op: refine one seeded, perturbed matrix with `optimize`."""

    pass_s = 5.1

    def setup(self, seed, seconds, tiny=False):
        rn = self.rn = _import_resonet()
        rng = np.random.default_rng(seed)
        mix = TUNE_TINY_MIX if tiny else TUNE_MIX
        designs = {d: rn.synthesize_design(_spec_for(rn, d)) for d, _, _ in mix}
        self.n_passes = self.passes_for(seconds, tiny)
        self.passes, record = [], []
        for _ in range(self.n_passes):
            ops = []
            for design, free_qe, symmetric in mix:
                base = designs[design]
                keys = rn.ladder_free_parameters(base.spec.order, include_qe=free_qe)
                m, qe1, qen = _perturb(base.matrix, keys, rng, symmetric)
                problem = rn.OptimizationProblem(
                    initial=rn.CouplingMatrix(m=m, qe1=qe1, qen=qen),
                    spec=base.spec,
                    free_parameters=keys,
                    cost_config=rn.CostConfig.from_spec(base.spec),
                )
                label = f"{design}{'+qe' if free_qe else ''}{'/sym' if symmetric else ''}"
                ops.append(Op(label, (problem, base.matrix)))
                record.append([label, m.tolist(), qe1, qen])
            self.passes.append(ops)
        self.input_hash = digest([self.n_passes, record])
        for op in self.passes[0]:  # warm up: one cost evaluation per problem
            rn.optimizer.cost(op.data[0].initial, op.data[0].cost_config)

    def run(self, op):
        return self.rn.optimizer.optimize(op.data[0], tol=TOL)

    def check(self, op, result):
        if not result.final_cost <= TOL:
            raise GateFailure(
                f"{op.label}: cost {result.final_cost:.3e} > {TOL} after {result.iterations} iterations"
            )
        cm0 = op.data[1]
        check_match(result.final.m, result.final.qe1, result.final.qen, cm0.m, cm0.qe1, cm0.qen, op.label)


def _perturb(cm, keys, rng, symmetric):
    """Scale each free parameter by 1 + U(-PERTURB, PERTURB). With
    `symmetric`, a parameter and its mirror take one value, so the problem
    stays palindromic and the optimizer moves them as one orbit."""
    m = np.array(cm.m, dtype=float)
    qe = {("qe1",): cm.qe1, ("qen",): cm.qen}
    n = cm.n

    def mirror(key):
        if key in qe:
            return ("qen",) if key == ("qe1",) else ("qe1",)
        return ("m", n + 1 - key[2], n + 1 - key[1])

    done = set()
    for key in keys:
        if key in done:
            continue
        old = qe[key] if key in qe else m[key[1] - 1, key[2] - 1]
        value = old * (1.0 + rng.uniform(-PERTURB, PERTURB))
        group = {key, mirror(key)} if symmetric else {key}
        for k in group:
            if k in qe:
                qe[k] = value
            else:
                m[k[1] - 1, k[2] - 1] = m[k[2] - 1, k[1] - 1] = value
        done |= group
    return m, qe[("qe1",)], qe[("qen",)]


# -- sweep -------------------------------------------------------------------

SWEEP_DESIGNS = ("xband-4pole", "xband-8pole", "synthetic-16")
SWEEP_POINTS = 100_000
SWEEP_TINY_POINTS = 2_000


class Sweep(Workload):
    """One op: one in-memory two-port sweep over about three passbands."""

    pass_s = 1.7

    def setup(self, seed, seconds, tiny=False):
        rn = self.rn = _import_resonet()
        rng = np.random.default_rng(seed)
        self.check_rng = np.random.default_rng([seed, 1])
        self.points = SWEEP_TINY_POINTS if tiny else SWEEP_POINTS
        designs = {d: rn.synthesize_design(_spec_for(rn, d)) for d in SWEEP_DESIGNS}
        self.n_passes = self.passes_for(seconds, tiny)
        self.passes, record = [], []
        for _ in range(self.n_passes):
            ops = []
            for name, design in designs.items():
                spec = design.spec
                half = 0.5 * rng.uniform(2.8, 3.2) * spec.bandwidth_hz
                center = spec.f0_hz + rng.uniform(-0.05, 0.05) * spec.bandwidth_hz
                ops.append(Op(f"n{spec.order}", (design, center - half, center + half)))
                record.append([name, center - half, center + half, self.points])
            self.passes.append(ops)
        self.input_hash = digest([self.n_passes, record])
        for op in self.passes[0]:  # warm up at a small size
            design, lo, hi = op.data
            rn.response.sweep_two_port(design.matrix, design.spec, lo, hi, 1000)

    def run(self, op):
        design, lo, hi = op.data
        resp, s12, _ = self.rn.response.sweep_two_port(design.matrix, design.spec, lo, hi, self.points)
        return resp, s12

    def check(self, op, result):
        resp, s12 = result
        design = op.data[0]
        if len(resp.grid) != self.points:
            raise GateFailure(f"{len(resp.grid)} points, asked for {self.points}")
        cm, spec = design.matrix, design.spec
        check_two_port(resp.grid, resp.s11, resp.s21, s12, cm.m, cm.qe1, cm.qen, spec.f0_hz, spec.fbw, self.check_rng)


# -- cli ---------------------------------------------------------------------

CLI_POINTS = 10_000
CLI_TINY_POINTS = 401
EXTRACT_POINTS = 10_001
# k spans weak to moderate coupling, where the O(k^3) gap between the
# model's peak spacing and the Hong-Lancaster formula reaches 3k^3/8 ~ 6e-4.
K_RANGE = (0.05, 0.12)
QE_RANGE = (10.0, 40.0)
FBW_EXTRACT = 0.05
F0_EXTRACT = 10.0e9


def k_tolerance(k: float) -> float:
    """The 3k^3/8 Hong-Lancaster bias with margin, plus 0.2% for peak
    interpolation and the weak port loading."""
    return 0.5 * k**3 + 2e-3 * k


QE_RTOL = 5e-3  # covers the 1/2500 far-port loading and 3 dB interpolation
CENTER_TOL = 0.02  # analyze center vs f0, as a share of the bandwidth


class Cli(Workload):
    """One op: one `resonet` subcommand in a fresh process. Every pass
    repeats the same commands on the same inputs."""

    kernel = calibrate.ImportKernel
    pass_s = 25.0

    def __init__(self):
        self.work = os.path.join(ROOT, ".bench_out", f"cli-work-{os.getpid()}")
        self.span_file = os.path.join(self.work, ".spans.npz")
        self.max_child_rss_kb = 0
        self.trace = False

    def setup(self, seed, seconds, tiny=False):
        rng = np.random.default_rng(seed)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        points = CLI_TINY_POINTS if tiny else CLI_POINTS
        presets = ("xband-4pole",) if tiny else tuple(PRESETS)
        record = []
        ops = []
        for p, preset in enumerate(presets):
            order, f0, bw = PRESETS[preset]
            lo, hi = (f0 - 1.5 * bw) / 1e9, (f0 + 1.5 * bw) / 1e9
            design = f"{preset}.json"
            ops.append(Op("synthesize", (["synthesize", "--preset", preset, "--out", design], preset)))
            for fmt, ext in (("touchstone", "s2p"), ("csv", "csv")):
                out = f"{preset}.{ext}"
                ops.append(Op("sweep", ([
                    "sweep", "--design", design, "--f-start", repr(lo), "--f-stop", repr(hi),
                    "--points", str(points), "--format", fmt, "--out", out,
                ], preset)))
            # read the Touchstone file for two presets and the CSV for one
            analyzed = f"{preset}.{'csv' if p == 1 else 's2p'}"
            ops.append(Op("analyze", (["analyze", "--response", analyzed], preset)))
            if order == 4:
                config = f"{preset}-optimize.json"
                opt = {"perturb": PERTURB, "seed": int(rng.integers(2**31)), "tol": TOL}
                _write(os.path.join(self.work, config), json.dumps(opt))
                record.append([config, opt])
                ops.append(Op("optimize", ([
                    "optimize", "--design", design, "--config", config, "--out", f"{preset}-opt.json",
                ], preset)))
        k = float(rng.uniform(*K_RANGE))
        qe = float(rng.uniform(*QE_RANGE))
        for name, (m, qe1, qen, lo, hi) in (
            ("pair.s2p", pair_model(k)),
            ("single.s2p", single_model(qe)),
        ):
            text = touchstone_text(m, qe1, qen, lo, hi, EXTRACT_POINTS)
            _write(os.path.join(self.work, name), text)
            record.append([name, hashlib.sha256(text.encode()).hexdigest()])
        ops.append(Op("extract", (["extract", "--response", "pair.s2p", "--mode", "k"], k)))
        ops.append(Op("extract", (["extract", "--response", "single.s2p", "--mode", "qe"], qe)))
        record.append([op.data[0] for op in ops])
        self.n_passes = self.passes_for(seconds, tiny)
        self.passes = [ops] * self.n_passes
        self.check_rng = np.random.default_rng([seed, 1])
        self.input_hash = digest([self.n_passes, record])
        self.launch(["--version"])  # warm up: one full import in a child

    def launch(self, argv, span_file=None):
        """Run the launcher in a child; returns (exit code, stdout, stderr)."""
        env = dict(os.environ)
        env.pop("BENCH_SPAN_FILE", None)
        if span_file:
            env["BENCH_SPAN_FILE"] = span_file
        out_path = os.path.join(self.work, ".stdout")
        err_path = os.path.join(self.work, ".stderr")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            proc = subprocess.Popen(
                [sys.executable, LAUNCHER, *argv], cwd=self.work, stdout=out, stderr=err, env=env
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_child_rss_kb = max(self.max_child_rss_kb, usage.ru_maxrss)
        with open(out_path) as out, open(err_path) as err:
            return proc.returncode, out.read(), err.read()

    def run(self, op):
        return self.launch(op.data[0], self.span_file if self.trace else None)

    def trace_on(self, tracer):
        self.trace = True

    def trace_off(self, tracer):
        self.trace = False

    def after_op(self, tracer, op_span):
        if os.path.exists(self.span_file):
            tracer.merge(self.span_file, parent=op_span, op=tracer.current_op)
            os.unlink(self.span_file)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def peak_rss_mb(self):
        return self.max_child_rss_kb / 1024.0

    def check(self, op, result):
        code, stdout, stderr = result
        argv, expected = op.data
        if code != 0:
            raise GateFailure(f"{' '.join(argv)} exited {code}: {stderr.strip()[-300:]}")
        getattr(self, f"_check_{op.label}")(argv, expected, stdout)

    def _path(self, argv, flag):
        return os.path.join(self.work, argv[argv.index(flag) + 1])

    def _check_synthesize(self, argv, preset, stdout):
        order, f0, bw = PRESETS[preset]
        with open(self._path(argv, "--out")) as handle:
            data = json.load(handle)
        spec = data["spec"]
        if spec["order"] != order or not np.allclose([spec["f0_hz"], spec["bandwidth_hz"]], [f0, bw], rtol=1e-12):
            raise GateFailure(f"{preset}: design file spec {spec}")
        m0, qe10, qen0 = chebyshev_ladder(order)
        mat = data["matrix"]
        err = max(
            np.abs(np.array(mat["m"]) - m0).max() / np.abs(m0).max(),
            abs(mat["qe1"] - qe10) / qe10,
            abs(mat["qen"] - qen0) / qen0,
        )
        if not err <= SYNTH_RTOL:
            raise GateFailure(f"{preset}: synthesized matrix off the Chebyshev ladder by {err:.3e}")

    def _check_sweep(self, argv, preset, stdout):
        order, f0, bw = PRESETS[preset]
        path = self._path(argv, "--out")
        with open(self._path(argv, "--design")) as handle:
            mat = json.load(handle)["matrix"]
        if path.endswith(".csv"):
            data = np.loadtxt(path, delimiter=",", skiprows=1)
            grid = data[:, 0]
            s11 = data[:, 1] + 1j * data[:, 2]
            s21 = data[:, 3] + 1j * data[:, 4]
            s12 = s21  # the CSV carries one transmission column
        else:
            data = np.loadtxt(path, comments=("!", "#"))
            grid = data[:, 0] * 1e9
            s11 = data[:, 1] + 1j * data[:, 2]
            s21 = data[:, 3] + 1j * data[:, 4]
            s12 = data[:, 5] + 1j * data[:, 6]
        points = int(argv[argv.index("--points") + 1])
        if grid.size != points:
            raise GateFailure(f"{path}: {grid.size} rows, asked for {points}")
        check_two_port(grid, s11, s21, s12, np.array(mat["m"]), mat["qe1"], mat["qen"], f0, bw / f0, self.check_rng)

    def _check_analyze(self, argv, preset, stdout):
        order, f0, bw = PRESETS[preset]
        found = re.search(r"center frequency:\s*([0-9.eE+-]+) GHz", stdout)
        if not found:
            raise GateFailure(f"analyze printed no center frequency: {stdout!r}")
        center = float(found.group(1)) * 1e9
        if not abs(center - f0) <= CENTER_TOL * bw:
            raise GateFailure(f"{preset}: center {center:.6e} Hz, f0 {f0:.6e} Hz")

    def _check_optimize(self, argv, preset, stdout):
        found = re.search(r"final_cost=([0-9.eE+-]+)", stdout)
        if not found or not float(found.group(1)) <= TOL:
            raise GateFailure(f"{preset}: optimize did not reach cost {TOL}: {stdout[-200:]!r}")
        with open(self._path(argv, "--out")) as handle:
            mat = json.load(handle)["matrix"]
        with open(self._path(argv, "--design")) as handle:
            ref = json.load(handle)["matrix"]
        check_match(mat["m"], mat["qe1"], mat["qen"], np.array(ref["m"]), ref["qe1"], ref["qen"], preset)

    def _check_extract(self, argv, expected, stdout):
        if argv[argv.index("--mode") + 1] == "k":
            found = re.search(r"coupling coefficient k = ([0-9.eE+-]+)", stdout)
            tol = k_tolerance(expected)
        else:
            found = re.search(r"external quality factor Qe = ([0-9.eE+-]+)", stdout)
            tol = QE_RTOL * expected
        if not found:
            raise GateFailure(f"extract printed no value: {stdout!r}")
        value = float(found.group(1))
        if not abs(value - expected) <= tol:
            raise GateFailure(f"extracted {value}, expected {expected} +- {tol:.3g}")


def _write(path, text):
    with open(path, "w") as handle:
        handle.write(text)


def pair_model(k):
    """Two synchronous resonators coupled by k, the far port 400x weaker;
    returns (m, qe1, qen, f_lo, f_hi)."""
    m12 = k / FBW_EXTRACT
    qe1 = 50.0 / m12
    return np.array([[0.0, m12], [m12, 0.0]]), qe1, 400.0 * qe1, 0.85 * F0_EXTRACT, 1.15 * F0_EXTRACT


def single_model(qe):
    """One resonator loaded by Qe at the input, the far port 2500x weaker."""
    q = qe * FBW_EXTRACT
    span = 2.5 * F0_EXTRACT / qe
    return np.zeros((1, 1)), q, 2500.0 * q, F0_EXTRACT - span, F0_EXTRACT + span


def touchstone_text(m, qe1, qen, f_lo, f_hi, points):
    """`# GHz S RI R 50` two-port text of the model, by the benchmark's own
    solve, so the file is byte-identical whatever the program's version."""
    grid = np.linspace(f_lo, f_hi, points)
    omega = prototype_omega(grid, F0_EXTRACT, FBW_EXTRACT)
    n = m.shape[0]
    a = (-1j * m.astype(complex))[None, :, :] + (1j * omega)[:, None, None] * np.eye(n)
    a[:, 0, 0] += 1.0 / qe1
    a[:, -1, -1] += 1.0 / qen
    rhs = np.zeros((points, n, 2), dtype=complex)
    rhs[:, 0, 0] = rhs[:, -1, 1] = 1.0
    x = np.linalg.solve(a, rhs)
    c = 2.0 / math.sqrt(qe1 * qen)
    cols = (1.0 - 2.0 / qe1 * x[:, 0, 0], c * x[:, -1, 0], c * x[:, 0, 1], 1.0 - 2.0 / qen * x[:, -1, 1])
    lines = ["# GHz S RI R 50"]
    for i in range(points):
        row = [f"{grid[i] / 1e9:.17g}"]
        for col in cols:
            row += [f"{col[i].real:.17g}", f"{col[i].imag:.17g}"]
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


WORKLOADS = {"tune": Tune, "sweep": Sweep, "cli": Cli}
