"""Command-line surface: generation, validation, splitting, spectra,
encoding verification, simulation, and query-count benchmarks.

Exit codes: 0 success, 1 verification failure, 2 usage or parameter error,
3 resource cap exceeded.  JSON outputs are byte-identical across identical
invocations (floats carry 17 significant digits); the benchmark CSV's
wall-clock column is measured and therefore excluded from that guarantee.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from . import blockenc, dyson, ffhub, netgraph, refcheck, sparse_enc
from .errors import EncodingError, HubsimError, ParameterError, ResourceError
from .jsonio import dump_json
from .oracles import build_oracle_set

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _write_output(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_psi0(spec: str, dim: int) -> np.ndarray:
    if spec.startswith("basis:"):
        k = int(spec.split(":", 1)[1])
        if not (0 <= k < dim):
            raise ParameterError(f"basis index {k} out of range [0, {dim})")
        psi = np.zeros(dim, dtype=np.complex128)
        psi[k] = 1.0
        return psi
    if spec == "uniform":
        return np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)
    if spec.startswith("file:"):
        with open(spec.split(":", 1)[1], encoding="utf-8") as fh:
            data = json.load(fh)
        try:
            amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParameterError(f"malformed state file: {exc}") from exc
        if amps.shape != (dim,):
            raise ParameterError(
                f"state file has {amps.shape[0]} amplitudes, need {dim}")
        nrm = np.linalg.norm(amps)
        # written so that a NaN norm fails too
        if not abs(nrm - 1.0) <= 1e-9:
            raise ParameterError(f"state file norm {nrm:.6g} is not 1")
        return amps.astype(np.complex128)
    raise ParameterError(f"unknown psi0 spec {spec!r}")


def _state_doc(psi: np.ndarray) -> dict:
    return {
        "n": int(psi.shape[0]),
        "amplitudes": [[float(a.real), float(a.imag)] for a in psi],
    }


# -- subcommands ---------------------------------------------------------------


def cmd_gen(args) -> int:
    graph = netgraph.generate(args.n, args.m, args.s, args.h, args.seed)
    netgraph.save_graph(graph, args.output)
    return EXIT_OK


def cmd_validate(args) -> int:
    graph = netgraph.load_graph(args.graph)
    report = netgraph.validate(graph)
    _write_output(dump_json(report.as_dict()), args.output)
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_split(args) -> int:
    graph = netgraph.load_graph(args.graph)
    parts = netgraph.split(graph)
    identity = bool(np.array_equal(parts.reconstruct(),
                                   graph.dense_adjacency()))
    doc = {
        "nodes": graph.n_nodes,
        "hubs": list(graph.hubs),
        "a_minus": [list(e) for e in sorted(parts.a_minus)],
        "a_h": [list(e) for e in sorted(parts.a_h)],
        "a_r": [list(e) for e in sorted(parts.a_r)],
        "counts": {"a_minus": len(parts.a_minus), "a_h": len(parts.a_h),
                   "a_r": len(parts.a_r)},
        "identity_holds": identity,
    }
    _write_output(dump_json(doc), args.output)
    return EXIT_OK if identity else EXIT_VERIFY


def cmd_spectrum(args) -> int:
    graph = netgraph.load_graph(args.graph)
    spec = ffhub.spectrum_G(graph)
    doc = {
        "lambda_plus": spec.lambda_plus,
        "lambda_minus": spec.lambda_minus,
        "zero_eigenvalue_count": graph.n_nodes - 2,
        "psi_plus": [float(x.real) for x in spec.psi_plus],
        "psi_minus": [float(x.real) for x in spec.psi_minus],
    }
    _write_output(dump_json(doc), args.output)
    return EXIT_OK


def cmd_verify_be(args) -> int:
    graph = netgraph.load_graph(args.graph)
    parts = netgraph.split(graph)
    oracles = build_oracle_set(graph)
    results = {}
    failures = []

    def check(name, build, target):
        try:
            be = build()
            err = blockenc.verify(be, target.astype(np.complex128))
            results[name] = {"alpha": be.alpha, "ancillas": be.m, "error": err}
        except EncodingError as exc:
            results[name] = {"failed": str(exc)}
            failures.append(name)

    check("a_hub", lambda: sparse_enc.encode_Ah(oracles), parts.dense_a_h())
    check("a_reg", lambda: sparse_enc.encode_Ar(oracles), parts.dense_a_r())
    check("a_minus", lambda: sparse_enc.encode_Aminus(oracles),
          parts.dense_a_minus())
    residual = graph.dense_adjacency() - graph.dense_link_matrix()
    check("h2", lambda: sparse_enc.encode_H2(oracles), residual)
    if graph.m_hubs:
        g_dense = graph.dense_link_matrix().astype(np.complex128)
        check("exp_g", lambda: ffhub.build_expG(oracles, args.t),
              refcheck.dense_expm(g_dense, args.t))
    doc = {"graph": args.graph, "t": args.t, "encodings": results,
           "failures": failures}
    _write_output(dump_json(doc), args.output)
    return EXIT_VERIFY if failures else EXIT_OK


def cmd_simulate(args) -> int:
    graph = netgraph.load_graph(args.graph)
    dim = 2 ** graph.n_qubits
    psi0 = _load_psi0(args.psi0, dim)
    dyson.check_eps(args.eps)
    dyson.check_t(args.t)

    if args.method == "dense":
        dense_a = graph.dense_adjacency().astype(np.complex128)
        psi = refcheck.dense_expm(dense_a, args.t) @ psi0
        doc = {"t": args.t, "eps": args.eps, "method": "dense",
               "segments": 0, "K": 0, "D": 0, "queries": {},
               "norm_deficit": float(1.0 - np.linalg.norm(psi))}
    else:
        psi, report = dyson.simulate_full(graph, args.t, args.eps, psi0,
                                          method=args.method)
        doc = report.as_dict()

    if args.check:
        if graph.n_nodes <= refcheck.MAX_DENSE_DIM:
            dense_a = graph.dense_adjacency().astype(np.complex128)
            ref = refcheck.dense_expm(dense_a, args.t) @ psi0
            doc["final_error_vs_reference"] = refcheck.distance(psi, ref)
        else:
            doc["reference_note"] = (
                f"dense reference skipped: {graph.n_nodes} nodes exceeds "
                f"{refcheck.MAX_DENSE_DIM}")
    _write_output(dump_json(doc), args.output)
    if args.state_out:
        _write_output(dump_json(_state_doc(psi)), args.state_out)
    err = doc.get("final_error_vs_reference")
    if err is not None and err > args.eps:
        return EXIT_VERIFY
    return EXIT_OK


def cmd_bench(args) -> int:
    values = [v for v in args.values.split(",") if v]
    rows = []
    for raw in values:
        if args.suite == "t":
            graph = netgraph.load_graph(args.graph)
            t_val = float(raw)
        else:
            graph = netgraph.generate(int(raw), args.m, args.s, args.h,
                                      args.seed)
            t_val = args.t
        dim = 2 ** graph.n_qubits
        psi0 = np.zeros(dim, dtype=np.complex128)
        psi0[0] = 1.0
        start = time.perf_counter()
        _, report = dyson.simulate_full(graph, t_val, args.eps, psi0,
                                        method=args.method)
        wall_ms = 1000.0 * (time.perf_counter() - start)
        tallies = dict(report.queries)
        tallies["expG_stage"] = report.segments
        for oracle in sorted(tallies):
            rows.append({
                "N": graph.n_nodes, "M": graph.m_hubs, "s": graph.s_param,
                "h": graph.h_param, "t": t_val, "eps": args.eps,
                "oracle": oracle, "query_count": tallies[oracle],
                "wall_ms": f"{wall_ms:.3f}",
            })
    fieldnames = ["N", "M", "s", "h", "t", "eps", "oracle", "query_count",
                  "wall_ms"]
    out = sys.stdout if not args.output else open(args.output, "w",
                                                  encoding="utf-8", newline="")
    try:
        writer = csv.DictWriter(out, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.output:
            out.close()
    return EXIT_OK


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hubsim",
        description="Simulator for quantum walks on hub-sparse networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random hub-sparse graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("validate", help="check the hub-sparse conditions")
    p.add_argument("graph")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("split", help="emit the four-way adjacency split")
    p.add_argument("graph")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("spectrum", help="nonzero eigendata of the link matrix")
    p.add_argument("graph")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify-be",
                       help="verify every block encoding against its target")
    p.add_argument("graph")
    p.add_argument("--t", type=float, default=1.7)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_verify_be)

    p = sub.add_parser("simulate", help="evolve a state under the adjacency")
    p.add_argument("graph")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--method", choices=("dense", "classical-ff", "circuit"),
                   default="circuit")
    p.add_argument("--psi0", default="basis:0")
    p.add_argument("--check", action="store_true",
                   help="compare against the dense reference when feasible")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--state-out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="query-count scaling table (CSV)")
    p.add_argument("graph", nargs="?", default=None)
    p.add_argument("--suite", choices=("t", "n"), required=True)
    p.add_argument("--values", required=True,
                   help="comma-separated t values or node counts")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--method", choices=("classical-ff", "circuit"),
                   default="classical-ff")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--s", type=int, default=4)
    p.add_argument("--h", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "bench" and args.suite == "t" and not args.graph:
        parser.error("bench --suite t needs a graph file")
    try:
        return args.func(args)
    except ResourceError as exc:
        print(f"resource error ({exc.stage}): {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except EncodingError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (HubsimError, FileNotFoundError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
