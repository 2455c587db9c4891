"""hubsim benchmark: closed-loop ``simulate_full`` solves on one workload.

    python3 perfbench/run.py --workload ff-n16 --seed 1 --seconds 30 --trace 0

One client, one process: the next solve starts only after the previous one
returned.  Inputs (graphs, initial states) are drawn from ``--seed``; the
program only sees the drawn inputs.  Every solve, warm-up solves included,
is checked against the dense reference ``exp(-iAt) psi0`` outside the timed
interval.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics of a traced run (see README.md).  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  Spans and a fuller result record go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from layertrace import Tracer, layer_metrics, solve_self_sums

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
NPROC = len(os.sched_getaffinity(0))
# BLAS threads, fixed before numpy loads: never more than the cores we have.
BLAS_THREADS = NPROC
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the thread settings)

SETUP_REPEATS = 3      # set-ups per run; setup_s is their median
TAIL_BEYOND = 10       # solves above the reported tail value
MIN_SOLVES = TAIL_BEYOND + 1   # solves every timed phase makes, however slow
TRACED_SOLVES = 16     # traced solves per --trace 1 run
PROBE_SEED = 2 ** 40   # seeds the warm-up inputs, which max_error is over


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    t: float
    eps: float
    graph: tuple | None   # generate(N, M, s, h) parameters; None: dg8()
    pool: int             # distinct inputs drawn per set-up
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("ff-n16", "classical-ff", 1.0, 1e-2, (16, 2, 4, 2), 128,
             "dense tier on a fresh N=16 graph per solve: the ordered-series "
             "totals take nearly all the time"),
    Workload("circuit-dg8", "circuit", 1.3, 1e-2, None, 64,
             "circuit tier on the one dg8 fixture: two segment builds per "
             "solve, repeated build_expG calls, eager select_g"),
    Workload("circuit-n32", "circuit", 1.0, 0.1, (32, 2, 8, 2), 64,
             "circuit tier on a fresh N=32 graph per solve: the most "
             "circuit extraction and the highest peak memory"),
)}

END_TO_END_UNITS = {
    "solves_per_s": "1/s", "solve_s_p50": "s", "solve_s_tail": "s",
    "setup_s": "s", "peak_rss_mb": "MB", "max_error": "l2",
    "success_ratio": "ratio",
}

PER_LAYER_UNITS = {
    "dyson.segment_builds": "count", "dyson.segment_s": "s",
    "dyson.select_s": "s", "dyson.solve_self_s": "s",
    "qstate.extract_calls": "count", "qstate.extract_s": "s",
    "qstate.extract_max_width": "qubits", "qstate.extract_amplitudes": "count",
    "ffhub.expG_builds": "count", "ffhub.expG_distinct_ratio": "ratio",
    "ffhub.expG_s": "s", "ffhub.rotation_s": "s",
    "blockenc.aa_builds": "count", "blockenc.aa_s": "s",
    "blockenc.aa_degree_segment": "count", "blockenc.block_calls": "count",
    "blockenc.block_s": "s", "blockenc.apply_s": "s",
    "sparse_enc.h2_builds": "count", "sparse_enc.h2_s": "s",
    "oracles.build_s": "s", "oracles.gate_applications": "count",
    "netgraph.generate_s": "s", "netgraph.validate_calls": "count",
    "netgraph.validate_s": "s", "refcheck.check_s": "s",
    "dyson.K": "count", "dyson.D": "count", "dyson.segments": "count",
    "dyson.report_queries": "count", "trace.overhead_ratio": "ratio",
}

# Counts that must repeat exactly between two runs at one seed.
FINGERPRINT = ("dyson.K", "dyson.D", "dyson.segments", "dyson.report_queries",
               "blockenc.aa_degree_segment", "ffhub.expG_builds",
               "qstate.extract_amplitudes", "oracles.gate_applications")


@dataclass
class Input:
    graph: object
    oracles: object
    psi0: object


@dataclass
class Solve:
    input: Input
    seconds: float
    psi: object = None
    report: object = None
    eps: float = 0.0
    gate_applications: int = 0
    raised: str | None = None
    error: float | None = None
    check_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.raised is None and self.error is not None \
            and self.error <= self.eps


def import_hubsim():
    """Import hubsim from this checkout's ``src``; None when it is absent."""
    src = ROOT / "src"
    if not (src / "hubsim" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import hubsim
    if Path(hubsim.__file__).resolve().parent != (src / "hubsim").resolve():
        return None
    return hubsim


def draw_inputs(hubsim, wl: Workload, seed: int, rep: int):
    """The warm-up input, which does not depend on ``seed``, then
    ``wl.pool`` inputs drawn from ``(seed, rep)``; plus the seconds spent
    generating graphs and building oracle sets."""
    pool_rng = np.random.default_rng([seed, rep])
    rngs = [np.random.default_rng([PROBE_SEED, rep])] + [pool_rng] * wl.pool
    t0 = perf_counter()
    if wl.graph is None:
        graphs = [hubsim.dg8()] * len(rngs)
    else:
        graphs = [hubsim.generate(*wl.graph, int(rng.integers(2 ** 31)))
                  for rng in rngs]
    t1 = perf_counter()
    oracle_sets = {}
    for g in graphs:
        if id(g) not in oracle_sets:
            oracle_sets[id(g)] = hubsim.build_oracle_set(g)
    t2 = perf_counter()
    inputs = []
    for g, rng in zip(graphs, rngs):
        dim = 2 ** g.n_qubits
        psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        inputs.append(Input(g, oracle_sets[id(g)], psi0 / np.linalg.norm(psi0)))
    return inputs, t1 - t0, t2 - t1


def solve(hubsim, wl: Workload, inp: Input) -> Solve:
    before = sum(inp.oracles.counter.snapshot().values())
    t0 = perf_counter()
    try:
        psi, report = hubsim.simulate_full(inp.graph, wl.t, wl.eps, inp.psi0,
                                           method=wl.method,
                                           oracle_set=inp.oracles)
        raised = None
    except Exception as exc:  # a failed solve is counted, never skipped
        psi = report = None
        raised = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    seconds = perf_counter() - t0
    after = sum(inp.oracles.counter.snapshot().values())
    return Solve(inp, seconds, psi, report, wl.eps, after - before, raised)


def check(hubsim, wl: Workload, s: Solve) -> None:
    """Distance of the solve's output from the dense reference."""
    if s.raised is not None:
        return
    t0 = perf_counter()
    ref = hubsim.refcheck.dense_expm(s.input.graph.dense_adjacency(), wl.t) \
        @ s.input.psi0
    s.error = hubsim.refcheck.distance(s.psi, ref)
    s.check_s = perf_counter() - t0


def set_up(hubsim, wl: Workload, seed: int, rep: int):
    """Draw the inputs and make one untimed warm-up solve."""
    t0 = perf_counter()
    inputs, gen_s, oracle_s = draw_inputs(hubsim, wl, seed, rep)
    warm = solve(hubsim, wl, inputs[0])
    setup_s = perf_counter() - t0
    check(hubsim, wl, warm)
    return inputs[1:], warm, {"setup_s": setup_s, "generate_s": gen_s,
                              "oracle_s": oracle_s}


def timed_phase(hubsim, wl: Workload, inputs, first: int, seconds: float,
                min_solves: int, tracer=None):
    """Closed loop over ``inputs`` starting at index ``first``: at least
    ``min_solves`` solves, and solves until ``seconds`` have passed.
    Returns the solves and the phase's wall time."""
    solves = []
    t0 = perf_counter()
    while True:
        if tracer is not None:
            tracer.solve = len(solves)
        solves.append(solve(hubsim, wl, inputs[(first + len(solves))
                                              % len(inputs)]))
        wall = perf_counter() - t0
        if len(solves) >= min_solves and wall >= seconds:
            return solves, wall


def tail(durations):
    """(value, percentile): the highest sample with TAIL_BEYOND samples
    above it, and its percentile in the sample."""
    ordered = sorted(durations)
    n = len(ordered)
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def run(hubsim, wl: Workload, seed: int, seconds: float, trace: bool):
    setups, warms = [], []
    for rep in range(SETUP_REPEATS):
        inputs, warm, setup = set_up(hubsim, wl, seed, rep)
        setups.append(setup)
        warms.append(warm)

    tracer = None
    if trace:
        tracer = Tracer()
        with tracer.installed(hubsim):
            traced, traced_wall = timed_phase(hubsim, wl, inputs, 0, 0.0,
                                              TRACED_SOLVES, tracer)
        tracer.solve = None
        rest = max(seconds - traced_wall, 0.0)
        timed, wall = timed_phase(hubsim, wl, inputs, TRACED_SOLVES, rest,
                                  MIN_SOLVES)
    else:
        traced = []
        timed, wall = timed_phase(hubsim, wl, inputs, 0, seconds, MIN_SOLVES)

    every = warms + traced + timed
    for s in traced + timed:
        check(hubsim, wl, s)
    failed = sum(not s.ok for s in every)
    durations = [s.seconds for s in timed]
    tail_s, tail_pct = tail(durations)
    # the warm-up inputs are the same for every seed; see README.md
    errors = [s.error for s in warms if s.error is not None]
    detail = {
        "solves": {"warmup": len(warms), "traced": len(traced),
                   "timed": len(timed)},
        "tail_percentile": tail_pct,
        "solve_seconds": durations,
        "solve_errors": [s.error for s in timed],
        "fail_ratio": failed / len(every),
        "failures": [s.raised or f"error {s.error!r} > eps {wl.eps}"
                     for s in every if not s.ok],
        "max_error_all": max((s.error for s in every if s.error is not None),
                             default=None),
    }
    checks = []
    if trace:
        metrics = traced_metrics(tracer, traced, timed, setups, every)
        sums = solve_self_sums(tracer)
        over = [i for i, s in enumerate(traced) if sums[i] > s.seconds + 1e-9]
        checks.append(("self times within solve wall time", not over))
        tracer.write(OUT_DIR / f"spans-{wl.name}-s{seed}.jsonl")
    else:
        metrics = {
            "solves_per_s": sum(s.ok for s in timed) / wall,
            "solve_s_p50": statistics.median(durations),
            "solve_s_tail": tail_s,
            "setup_s": statistics.median(x["setup_s"] for x in setups),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # no warm-up returning makes the run incorrect anyway
            "max_error": max(errors, default=wl.eps),
            "success_ratio": 1.0 - failed / len(every),
        }
    checks.append(("every solve within eps", failed == 0))
    return metrics, detail, checks, len(every), failed


def traced_metrics(tracer, traced, timed, setups, every):
    metrics = layer_metrics(tracer, list(range(len(traced))))
    reports = [s.report for s in traced if s.report is not None]
    n = len(traced)

    def report_mean(fn):
        return sum(map(fn, reports)) / n

    metrics.update({
        "oracles.build_s": statistics.median(x["oracle_s"] for x in setups),
        "oracles.gate_applications": sum(s.gate_applications
                                         for s in traced) / n,
        "netgraph.generate_s":
            statistics.median(x["generate_s"] for x in setups),
        "refcheck.check_s": statistics.fmean(s.check_s for s in every),
        "dyson.K": report_mean(lambda r: r.big_k),
        "dyson.D": report_mean(lambda r: r.big_d),
        "dyson.segments": report_mean(lambda r: r.segments),
        "dyson.report_queries": report_mean(lambda r: sum(r.queries.values())),
        "trace.overhead_ratio":
            statistics.median(s.seconds for s in traced)
            / statistics.median(s.seconds for s in timed) - 1.0,
    })
    return metrics


def environment(args) -> dict:
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": NPROC, "blas_threads": BLAS_THREADS,
        "machine": platform.machine(), "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    hubsim = import_hubsim()
    if hubsim is None:
        print(f"error: no hubsim sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]
    env = environment(args)
    print("env " + json.dumps(env), flush=True)
    metrics, detail, checks, attempted, failed = run(
        hubsim, wl, args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name:28s} {value!r:>24} {units[name]}")
    if not args.trace:
        n = detail["solves"]["timed"]
        print(f"solve_s_tail is p{detail['tail_percentile']:.1f} of {n} "
              f"timed solves; fail_ratio {detail['fail_ratio']!r} "
              f"({failed}/{attempted})")
    for what, passed in checks:
        print(f"check: {what}: {'ok' if passed else 'FAILED'}")
    for failure in detail["failures"]:
        print(f"failed solve: {failure}")
    correct = all(passed for _, passed in checks)

    record = {"env": env, "workload": wl.__dict__, "correct": correct,
              "attempted": attempted, "failed": failed, "metrics": metrics,
              "detail": detail,
              "fingerprint": {k: metrics[k] for k in FINGERPRINT
                              if k in metrics}}
    (OUT_DIR / f"result-{wl.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
