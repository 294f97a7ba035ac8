"""vibprune benchmark: one workload, one seed, one process.

Run from the repository root:

    python3 bench/run.py --workload readme-vtrans --seed 0 --seconds 55 --trace 0

`--trace 0` measures the end-to-end metrics of BENCHMARK.json; `--trace 1`
makes a separate traced run that reports the per-layer metrics. The last
line of standard output is the result object; the line before it holds the
run's environment, fingerprint and exact counts. Both are also written to
`bench/results/`. The program under test is imported from `src/` beside
this directory, and only from there.
"""

from __future__ import annotations

import os

# pinned before numpy loads: one process, one BLAS thread, no other workers
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from statistics import median  # noqa: E402

import numpy as np  # noqa: E402

T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MODULES = ("tensor", "gates", "model", "objective", "pipeline", "extract",
           "data", "checkpoint", "cli", "analysis", "errors")

MIN_SERVE_ROUNDS = 8
TRACE_SERVE_ROUNDS = 5


def import_program():
    """The vibprune package under `src/`; exits 2 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "vibprune", "__init__.py")):
        print(f"bench: no vibprune package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import vibprune

    if os.path.dirname(os.path.abspath(vibprune.__file__)) != os.path.join(SRC, "vibprune"):
        print(f"bench: imported vibprune from {vibprune.__file__}", file=sys.stderr)
        sys.exit(2)
    return types.SimpleNamespace(**{m: importlib.import_module(f"vibprune.{m}")
                                    for m in MODULES})


def source_lines() -> int:
    total = 0
    for d, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(d, f), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def tail(xs) -> tuple:
    """Highest whole percentile with at least ten samples beyond it, and its
    value; (None, None) when there are too few samples."""
    n = len(xs)
    if n < 11:
        return None, None
    pct = int(100 * (1 - 10 / n))
    return pct, float(np.percentile(xs, pct))


def summary(xs) -> dict:
    """A timing as its median, its tail and its sample count."""
    pct, value = tail(xs)
    return {"n": len(xs), "median": median(xs), "tail_pct": pct, "tail": value}


def steal_ticks() -> int | None:
    """CPU time the hypervisor gave to others, in clock ticks (Linux only)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    vp = import_program()
    import_s = time.perf_counter() - T_START

    sys.path.insert(0, HERE)
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    results = os.path.join(HERE, "results")
    work = os.path.join(results, tag + ".work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ledger = wl.Ledger()

    info = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "blas_threads": {v: os.environ[v] for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")},
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "load": "closed loop, one client, one process",
        },
        "src_loc": source_lines(),
        "import_s": import_s,
    }
    try:
        if args.trace:
            metrics = run_traced(vp, wl, w, args, work, ledger, info)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            metrics = run_untraced(vp, wl, w, args, work, ledger, info)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = sorted(set(units) - set(metrics)) if metrics else sorted(units)
    if missing and not ledger.failures:
        print(f"bench: metrics not produced: {missing}", file=sys.stderr)
        return 3
    for msg in ledger.failures:
        print(f"bench: check failed: {msg}", file=sys.stderr)
    info["failures"] = ledger.failures
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {k: {"value": float(metrics[k]), "unit": u}
                    for k, u in units.items() if k in (metrics or {})},
    }
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump({"info": info, "result": result}, f, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


def _setup(vp, wl, w, seed, work, name):
    d = os.path.join(work, name)
    t0 = time.perf_counter()
    prep = wl.prepare(vp, w, seed, d)
    return prep, time.perf_counter() - t0


def run_untraced(vp, wl, w, args, work, ledger, info) -> dict | None:
    prep, first_setup_s = _setup(vp, wl, w, args.seed, work, "setup")
    setup_s = [first_setup_s]

    # A shared machine's speed switches between states about 1.4x apart
    # every few seconds, so each part is spread over the whole run rather
    # than measured in one block: the chain runs `w.chains` times with the
    # same seed, chain i starting about i/chains of the way into the run;
    # serving rounds fill the time between, and a repeat of the set-up
    # follows every CLI stage.
    t0 = time.perf_counter()
    steal0 = steal_ticks()
    server = wl.Server(vp, prep.serving, ledger)

    def between():
        setup_s.append(_setup(vp, wl, w, args.seed, work, "setup-repeat")[1])

    chains = []
    for i in range(w.chains):
        while time.perf_counter() < t0 + i * args.seconds / w.chains:
            server.round()
        chains.append(wl.run_chain(vp, w, prep, os.path.join(work, f"chain{i}"),
                                   ledger, between=between))
    while server.rounds < MIN_SERVE_ROUNDS or time.perf_counter() < t0 + args.seconds:
        server.round()
    times = server.times
    info["timed_s"] = time.perf_counter() - t0
    if steal0 is not None:
        info["env"]["steal_s_during_timed_part"] = (
            (steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK"))
    if None in chains:
        return None
    ledger.check(all(c.fingerprint == chains[0].fingerprint for c in chains),
                 f"same seed, different outputs: {[c.fingerprint for c in chains]}")
    steps = {ph: [ms for c in chains for ms in c.steps_ms[ph]]
             for ph in chains[0].steps_ms}
    chain = chains[0]

    srv = {k: median(v) for k, v in times.items()}
    pct, prune_tail = tail(steps["prune"])
    flops = prep.serving.flops_ratio
    info.update({
        "fingerprint": chain.fingerprint,
        "counts": {
            "checkpoint_bytes": chain.checkpoint_bytes,
            "serve_flops_ratio": flops,
            "serve_params_ratio": prep.serving.params_ratio,
        },
        "prune_step_ms.tail_percentile": pct,
        "timings": {
            "setup_s": summary(setup_s),
            "pipeline_s": summary([c.seconds for c in chains]),
            **{f"{ph}_step_ms": summary(v) for ph, v in steps.items()},
            **{f"serve_ms.{m}.b{b}": summary([1e3 * t for t in v])
               for (m, b), v in times.items()},
        },
        "stage_s": [c.stage_s for c in chains],
    })
    return {
        "setup_s": median(setup_s),
        "pipeline_s": median([c.seconds for c in chains]),
        "teacher_step_ms": median(steps["teacher"]),
        "prune_step_ms": median(steps["prune"]),
        "prune_step_ms.tail": prune_tail,
        "finetune_step_ms": median(steps["finetune"]),
        "teacher_ex_per_s.b256": 256 / srv[("teacher", 256)],
        "masked_ex_per_s.b256": 256 / srv[("masked", 256)],
        "dense_ex_per_s.b256": 256 / srv[("dense", 256)],
        "dense_ex_per_s.b64": 64 / srv[("dense", 64)],
        "dense_time_over_flops":
            (srv[("dense", 256)] / srv[("teacher", 256)]) / flops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_traced(vp, wl, w, args, work, ledger, info) -> dict | None:
    import layer_metrics
    from tracing import Tracer

    prep, _ = _setup(vp, wl, w, args.seed, work, "setup-untraced")
    plain = wl.run_chain(vp, w, prep, os.path.join(work, "chain-untraced"), ledger)

    tracer = Tracer()
    tracer.install(vars(vp))
    try:
        prep, _ = _setup(vp, wl, w, args.seed, work, "setup-traced")
        chain = wl.run_chain(vp, w, prep, os.path.join(work, "chain-traced"),
                             ledger, tracer)
        server = wl.Server(vp, prep.serving, ledger)
        for _ in range(TRACE_SERVE_ROUNDS):
            server.round()
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(HERE, "results", f"{w.name}-seed{args.seed}-spans.npz"))
    if plain is None or chain is None:
        return None
    ledger.check(plain.fingerprint == chain.fingerprint,
                 f"traced chain changed the outputs: {plain.fingerprint} "
                 f"vs {chain.fingerprint}")
    info["fingerprint"] = chain.fingerprint
    info["spans"] = len(tracer)
    return layer_metrics.derive(tracer, chain, plain, prep.serving)


if __name__ == "__main__":
    sys.exit(main())
