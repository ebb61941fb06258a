"""Benchmark of `resonet`: one workload, one seed, one run.

    python3 bench/run.py --workload {tune,sweep,cli} --seed N --seconds S --trace {0,1}

Run from anywhere; the program is imported from `src/` next to this
directory. Load is a closed loop: one client, each op starting when the
last one ends, over a fixed number of passes of the seeded input mix: as
many as take S seconds of op time at this commit on a 2-core x86-64 VM.
`--trace 0` prints the end-to-end metrics; `--trace 1` alternates traced and
untraced passes and prints the per-layer metrics. The last line of stdout
is the JSON result; the full record (sample counts, environment, input
hash, failures, span summary) is written under `.bench_out/`.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 3
P90_MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("tune", "sweep", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure(workload, calibrator, tracer=None):
    """Run the workload's passes, each once (twice with a tracer).

    Each op's time is also scaled to the reference speed by the calibration
    taken just before and just after it, or before and after its group of
    `calibrator.every` ops. With a tracer, each pass runs twice, traced and
    untraced, alternating which goes first, so the overhead compares
    identical work."""
    runs = {"untraced": [], "scaled": [], "traced": [], "traced_scaled": [], "attempted": 0,
            "failed": 0, "failures": [], "by_label": {}}
    for p, ops in enumerate(workload.passes):
        modes = [None] if tracer is None else ([tracer, None] if p % 2 == 0 else [None, tracer])
        for t in modes:
            if t is not None:
                workload.trace_on(t)
            before = calibrator.scale()
            pending = []  # (ns, label) of ops whose closing calibration is not taken yet
            for i, op in enumerate(ops):
                error = None
                sid = t.begin_op() if t is not None else None
                t0 = time.perf_counter_ns()
                try:
                    result = workload.run(op)
                except Exception as err:  # an op that raises is a failed op, not a crash
                    error = err
                t1 = time.perf_counter_ns()
                if t is not None:
                    t.finish(sid, error=error is not None)
                    workload.after_op(t, sid)
                pending.append((t1 - t0, op.label))
                if len(pending) == calibrator.every or i == len(ops) - 1:
                    after = calibrator.scale()
                    for ns, label in pending:
                        scaled = ns * (before + after) / 2.0
                        if t is not None:
                            runs["traced"].append(ns)
                            runs["traced_scaled"].append(scaled)
                        else:
                            runs["untraced"].append(ns)
                            runs["scaled"].append(scaled)
                            runs["by_label"].setdefault(label, []).append(scaled)
                    pending.clear()
                    before = after
                if error is None:
                    try:
                        workload.check(op, result)
                    except Exception as err:  # GateFailure, or output too broken to check
                        error = err
                runs["attempted"] += 1
                if error is not None:
                    runs["failed"] += 1
                    runs["failures"].append(f"{op.label}: {type(error).__name__}: {error}")
            if t is not None:
                workload.trace_off(t)
    return runs


def setup_probe(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--setup-only"]
    cmd += ["--tiny"] if args.tiny else []
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def setup_samples(args) -> tuple[list, list]:
    """Set-up times of fresh `--setup-only` processes, raw and scaled to the
    reference import speed by the import timed just before and just after
    each one."""
    from calibrate import ImportKernel

    kernel = ImportKernel()
    raw, scaled = [], []
    before = kernel.scale()
    for _ in range(SETUP_SAMPLES):
        setup_s = setup_probe(args)
        after = kernel.scale()
        raw.append(setup_s)
        scaled.append(setup_s * (before + after) / 2.0)
        before = after
    return raw, scaled


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "resonet", "__init__.py")):
        print(f"error: no resonet package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    workload.setup(args.seed, args.seconds, tiny=args.tiny)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    runs = measure(workload, workload.kernel(), tracer)
    n_ops = len(runs[("traced" if tracer else "untraced")])
    samples = {}
    if tracer is None:
        setup_raw, setup_scaled = setup_samples(args)
        lat = runs["scaled"]
        metrics = {
            "ops_per_s": len(lat) / (sum(lat) / 1e9),
            "op_p50_ms": statistics.median(lat) / 1e6,
            "peak_rss_mb": workload.peak_rss_mb(),
            "setup_s": statistics.median(setup_scaled),
        }
        samples = {"ops_per_s": len(lat), "op_p50_ms": len(lat), "peak_rss_mb": 1, "setup_s": len(setup_scaled)}
        units = dict(END_TO_END)
        extra = {
            "setup_samples_s": setup_scaled,
            "unscaled": {
                "setup_samples_s": setup_raw,
                "setup_this_process_s": setup_s,
                "op_p50_ms": statistics.median(runs["untraced"]) / 1e6,
                "ops_per_s": len(runs["untraced"]) / (sum(runs["untraced"]) / 1e9),
            },
        }
        if len(lat) >= P90_MIN_OPS:
            extra["op_p90_ms"] = percentile(lat, 90) / 1e6
        else:
            extra["op_p90_ms_omitted"] = (
                f"{len(lat)} ops < {P90_MIN_OPS}: the 90th percentile would have fewer than ten samples beyond it"
            )
        summary = None
    else:
        from layers import PER_LAYER, per_layer_metrics

        overhead = sum(runs["traced_scaled"]) / sum(runs["scaled"]) - 1.0
        metrics, summary = per_layer_metrics(tracer, overhead)
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {name: metrics[name] for name, _, _ in PER_LAYER}
        extra = {
            "traced_op_ms": sum(runs["traced_scaled"]) / len(runs["traced"]) / 1e6,
            "untraced_op_ms": sum(runs["scaled"]) / len(runs["untraced"]) / 1e6,
            "spans": len(tracer.start),
            "hooks_not_installed": sorted(set(tracer.missing)),
        }
    workload.close()

    env = environment(args, workload.input_hash)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "passes": len(workload.passes),
        "ops": n_ops,
        "attempted": runs["attempted"],
        "failed": runs["failed"],
        "failures": runs["failures"][:20],
        "op_ms_median_by_class": {k: statistics.median(v) / 1e6 for k, v in runs["by_label"].items()},
        "metrics": {k: {"value": metrics[k], "unit": units[k], "samples": samples.get(k, n_ops)} for k in metrics},
        "environment": env,
        **extra,
    }
    if summary is not None:
        record["span_summary"] = summary
        tracer.save(os.path.join(OUT, f"spans-{tag}.npz"))
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as handle:
        json.dump(record, handle, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(workload.passes)}  ops {n_ops}  input sha256 {env['input_hash'][:16]}")
    print(f"env: python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"blas threads {env['blas']['threads']}  nproc {env['nproc']}  commit {env['git_commit']}")
    for k, m in record["metrics"].items():
        print(f"  {k:40s} {m['value']:.6g} {m['unit']}  (n={m['samples']})")
    for k in ("op_p90_ms", "op_p90_ms_omitted", "traced_op_ms", "untraced_op_ms"):
        if k in extra:
            print(f"  {k}: {extra[k]}")
    for line in runs["failures"][:5]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": runs["failed"] == 0,
        "attempted": runs["attempted"],
        "failed": runs["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
    }))
    return 0


def environment(args, input_hash) -> dict:
    import hashlib
    import platform
    from importlib import metadata

    import numpy as np

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "resonet")
    for dirpath, dirnames, filenames in sorted(os.walk(pkg)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                source.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as handle:
                    source.update(handle.read())
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas_info(np),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "input_hash": input_hash,
        "platform": platform.platform(),
    }


def blas_info(np) -> dict:
    """BLAS name, build string and live thread count; None where unknown."""
    import ctypes
    import glob

    info = {"name": None, "version": None, "config": None, "threads": None,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError, ValueError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                info.update(threads=get_threads(), config=get_config().decode())
                return info
    return info


if __name__ == "__main__":
    sys.exit(main())
