"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion; each test also prints a measurement summary (visible with
``-s`` or on failure).
"""

import csv
import math
import time

import numpy as np

from hubsim import dyson, ffhub, netgraph, refcheck, sparse_enc
from hubsim.blockenc import verify
from hubsim.cli import main as cli_main
from hubsim.oracles import (build_oracle_set, derive_OK_by_query,
                            derive_OZ_by_query)
from hubsim.qstate import spectral_norm


def _report(name, detail):
    print(f"[acceptance] {name}: PASS ({detail})")


def test_criterion_1_split_identity_100_graphs():
    start = time.perf_counter()
    params = [(8, 2, 4, 2), (16, 2, 4, 2), (16, 4, 4, 4), (32, 2, 8, 4),
              (64, 4, 8, 4), (128, 2, 8, 2), (256, 2, 8, 2), (256, 4, 8, 4),
              (32, 0, 4, 2), (64, 1, 4, 4)]
    count = 0
    for n, m, s, h in params:
        for seed in range(10):
            g = netgraph.generate(n, m, s, h, rng_seed=seed)
            parts = netgraph.split(g)
            assert np.array_equal(parts.reconstruct(), g.dense_adjacency()), \
                (n, m, s, h, seed)
            count += 1
    elapsed = time.perf_counter() - start
    assert count == 100
    assert elapsed < 10.0
    _report("criterion 1 split identity", f"{count} graphs, {elapsed:.2f}s")


def test_criterion_2_link_matrix_spectrum():
    for n in (8, 16, 32, 64):
        for m in (1, 2, 4):
            rng = np.random.default_rng(n * 10 + m)
            hubs = sorted(int(x) for x in rng.choice(n, size=m, replace=False))
            mask = np.zeros(n, dtype=bool)
            mask[hubs] = True
            link = (mask[:, None] ^ mask[None, :]).astype(float)
            evals = np.sort(np.linalg.eigvalsh(link))
            lam = math.sqrt(m * (n - m))
            assert np.all(np.abs(evals[1:-1]) < 1e-9)
            assert abs(evals[0] + lam) < 1e-9
            assert abs(evals[-1] - lam) < 1e-9
    _report("criterion 2 spectrum", "N in {8..64} x M in {1,2,4}")


def test_criterion_3_sparse_encodings():
    start = time.perf_counter()
    graphs = [netgraph.dg8()]
    for seed in range(10):
        graphs.append(netgraph.generate(8, 2, 4, 2, rng_seed=seed))
    for seed in range(10):
        graphs.append(netgraph.generate(16, 2 if seed % 2 else 4, 4,
                                        2 if seed % 2 else 4, rng_seed=seed))
    assert len(graphs) == 21
    for g in graphs:
        oracles = build_oracle_set(g)
        parts = netgraph.split(g)
        be = sparse_enc.encode_Ah(oracles)
        assert be.alpha == g.m_hubs
        assert verify(be, parts.dense_a_h().astype(complex)) <= 1e-10
        be = sparse_enc.encode_Ar(oracles)
        assert be.alpha == g.s_param
        assert verify(be, parts.dense_a_r().astype(complex)) <= 1e-10
        be = sparse_enc.encode_Aminus(oracles)
        assert be.alpha == g.h_param
        assert verify(be, parts.dense_a_minus().astype(complex)) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("criterion 3 encodings", f"21 graphs, {elapsed:.2f}s")


def test_criterion_4_fast_forward():
    g = netgraph.dg8()
    dense_g = g.dense_link_matrix().astype(complex)
    counts = set()
    for t in (0.3, 1.7, 10.0, 100.0):
        be = ffhub.build_expG(build_oracle_set(g), t, 1e-6)
        err = verify(be, refcheck.dense_expm(dense_g, t))
        assert err <= 1e-6, (t, err)
        counts.add(be.gate_count())
    assert len(counts) == 1
    _report("criterion 4 fast-forward",
            f"4 evolution times, gate count {counts.pop()}")


def test_criterion_5_query_counts():
    for n, m, s, h, seed in [(8, 2, 4, 2, 0), (16, 2, 4, 2, 1),
                             (32, 4, 8, 4, 2), (64, 2, 8, 2, 3),
                             (64, 4, 8, 4, 4)]:
        g = netgraph.generate(n, m, s, h, rng_seed=seed)
        oracles = build_oracle_set(g)
        qok = derive_OK_by_query(oracles)
        ok_bound = 2 * math.ceil(math.log2(n)) + 2
        for i in range(n):
            oracles.counter.reset()
            _, bit = qok.classical_apply(i)
            assert bit == int(g.is_hub(i))
            assert oracles.counter.counts["O_L"] <= ok_bound
        qoz = derive_OZ_by_query(oracles)
        oz_bound = 4 * h * math.log2(n)
        for i in g.hubs:
            oracles.counter.reset()
            zeros = qoz.zeros_by_query(i)
            assert oracles.counter.counts["O_L"] <= oz_bound
            assert zeros == [pos for pos in range(n)
                             if not g.has_edge(i, pos) or pos == i][:len(zeros)]
    _report("criterion 5 query counts", "N in {8..64}")


def test_criterion_6_end_to_end_tier_a():
    g = netgraph.dg8()
    dense_a = g.dense_adjacency().astype(complex)
    psi0 = np.zeros(8, dtype=np.complex128)
    psi0[0] = 1.0
    details = []
    for t in (0.5, 1.0, 2.0):
        start = time.perf_counter()
        out, report = dyson.simulate_full(g, t, 1e-3, psi0, method="circuit")
        elapsed = time.perf_counter() - start
        ref = refcheck.dense_expm(dense_a, t) @ psi0
        err = refcheck.distance(out, ref)
        assert err <= 1e-3, (t, err)
        assert elapsed < 300.0
        details.append(f"t={t}: err={err:.2e} in {elapsed:.1f}s")
    _report("criterion 6 end-to-end", "; ".join(details))


def test_criterion_7_convergence_tier_b():
    # grid sizes keep the first-order discretization floor safely below the
    # truncation errors being ratio-tested
    for (n, m, s, h, seed), ratio_d in [((8, 2, 4, 2, None), 16384),
                                        ((64, 2, 8, 2, 5), 2048)]:
        if seed is None:
            g = netgraph.dg8()
        else:
            g = netgraph.generate(n, m, s, h, rng_seed=seed)
        _, alpha2 = dyson.evolution_scales(g)
        tau = 1.0 / (2.0 * alpha2)
        reference = refcheck.rotated_propagator(g, tau, tol=1e-10)

        cfg = dyson.DysonConfig(tau, ratio_d, 4, 1e-3)
        seg = dyson.dyson_segment(dyson.LeafBlocks(g, "classical-ff"), cfg,
                                  check_budget=False)
        errs_k = {big_k: spectral_norm(
            dyson.segment_block_at_order(seg, big_k) - reference)
            for big_k in (1, 2, 3, 4)}
        for big_k in (1, 2, 3):
            bound = (math.e * alpha2 * tau) / (big_k + 1) * 1.5
            ratio = errs_k[big_k + 1] / errs_k[big_k]
            assert ratio <= bound, (g.n_nodes, big_k, ratio, bound)

        errs_d = []
        for big_d in (16, 32, 64, 128):
            cfg = dyson.DysonConfig(tau, big_d, 8, 1e-3)
            seg = dyson.dyson_segment(dyson.LeafBlocks(g, "classical-ff"),
                                      cfg, check_budget=False)
            errs_d.append(spectral_norm(seg.alpha * seg.block() - reference))
        for prev, nxt in zip(errs_d, errs_d[1:]):
            assert nxt <= prev / 2.0 * 1.1, (g.n_nodes, errs_d)
    _report("criterion 7 convergence",
            "factorial in K, first order in D at N=8 and N=64")


def test_criterion_8_scaling_regression(tmp_path):
    g = netgraph.dg8()
    psi0 = np.zeros(8, dtype=np.complex128)
    psi0[0] = 1.0
    t_values = (1.0, 2.0, 4.0)
    calls = []
    for t in t_values:
        _, report = dyson.simulate_full(g, t, 1e-2, psi0,
                                        method="classical-ff")
        calls.append(report.segments)
    slope, intercept = np.polyfit(t_values, calls, 1)
    for t, measured in zip(t_values, calls):
        fitted = slope * t + intercept
        assert abs(measured - fitted) <= 0.15 * measured, (calls,)

    graph_path = tmp_path / "g.json"
    netgraph.save_graph(g, str(graph_path))
    csv_paths = [tmp_path / "b1.csv", tmp_path / "b2.csv"]
    for path in csv_paths:
        rc = cli_main(["bench", str(graph_path), "--suite", "t",
                       "--values", "1,2,4", "--eps", "1e-2",
                       "-o", str(path)])
        assert rc == 0

    def stable(path):
        with open(path) as fh:
            return [{k: v for k, v in row.items() if k != "wall_ms"}
                    for row in csv.DictReader(fh)]

    rows1 = stable(csv_paths[0])
    assert rows1 == stable(csv_paths[1])
    stage = {float(r["t"]): int(r["query_count"]) for r in rows1
             if r["oracle"] == "expG_stage"}
    assert [stage[t] for t in t_values] == calls
    _report("criterion 8 scaling", f"stage calls {calls} over t={t_values}")


def test_criterion_9_reference_cross_check():
    rng = np.random.default_rng(17)
    fixtures = [netgraph.dg8(),
                netgraph.generate(16, 2, 4, 2, rng_seed=6),
                netgraph.generate(64, 2, 8, 2, rng_seed=7),
                netgraph.generate(8, 0, 2, 1, rng_seed=8)]
    worst = 0.0
    for g in fixtures:
        dim = g.n_nodes
        psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi0 /= np.linalg.norm(psi0)
        dense_a = g.dense_adjacency().astype(complex)
        for t in (0.5, 1.0):
            via_ode = refcheck.rotated_reference(g, t, psi0, tol=1e-10)
            via_eig = refcheck.dense_expm(dense_a, t) @ psi0
            err = refcheck.distance(via_ode, via_eig)
            worst = max(worst, err)
            assert err <= 1e-9, (g.n_nodes, t, err)
    _report("criterion 9 reference cross-check", f"worst {worst:.2e}")
