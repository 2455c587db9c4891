"""Layer tracing from outside the program.

While a ``Tracer`` is installed, the public entry points that one hubsim
module calls in another are rebound, in the module that looks them up, to
wrappers that record a span per call: layer, function, start, end, parent
span and solve id.  Private helpers are not wrapped, so their time is the
self time of the public function that called them.  Uninstalling restores
the original bindings.  Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    id: int
    func: str          # "<layer>.<function>"
    site: str          # module whose binding was rebound
    parent: int | None
    solve: int | None
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.func.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _expg_info(args, kwargs, result):
    return {"t": float(args[1]), "eps": float(args[2])}


def _extract_info(args, kwargs, result):
    n_sys = args[1] if len(args) > 1 else kwargs["n_sys"]
    return {"width": int(args[0].width), "n_sys": int(n_sys)}


def _aa_info(args, kwargs, result):
    return {"degree": int(result.aa_degree)}


def _targets(hubsim):
    """(owner, attribute, span name, info recorder) for every rebound
    entry point.  ``owner`` is the module (or class) the caller looks the
    name up in."""
    dyson, ffhub, sparse_enc, blockenc = (hubsim.dyson, hubsim.ffhub,
                                          hubsim.sparse_enc, hubsim.blockenc)
    be_cls = blockenc.BlockEncoding
    return [
        (hubsim, "simulate_full", "dyson.simulate_full", None),
        (dyson, "validate", "netgraph.validate", None),
        (sparse_enc, "validate", "netgraph.validate", None),
        (dyson, "build_oracle_set", "oracles.build_oracle_set", None),
        (dyson, "encode_H2", "sparse_enc.encode_H2", None),
        (dyson, "build_expG", "ffhub.build_expG", _expg_info),
        (dyson, "classical_expG_apply", "ffhub.classical_expG_apply", None),
        (dyson, "fixed_point_aa", "blockenc.fixed_point_aa", _aa_info),
        (dyson, "dyson_segment", "dyson.dyson_segment", None),
        (dyson, "build_selectG", "dyson.build_selectG", None),
        (ffhub, "fixed_point_aa", "blockenc.fixed_point_aa", None),
        (ffhub, "lcu", "blockenc.lcu", None),
        (sparse_enc, "lcu", "blockenc.lcu", None),
        (blockenc, "extract_block", "qstate.extract_block", _extract_info),
        (be_cls, "block", "blockenc.block", None),
        (be_cls, "apply_block", "blockenc.apply_block", None),
    ]


class Tracer:
    """Span recorder; use ``with tracer.installed(hubsim):`` around the
    traced solves and set ``tracer.solve`` before each one."""

    def __init__(self):
        self.spans: list[Span] = []
        self.solve: int | None = None
        self._stack: list[int] = []

    def _wrap(self, fn, func: str, site: str, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), func, site,
                        stack[-1] if stack else None, self.solve,
                        perf_counter())
            spans.append(span)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result
        return traced

    @contextmanager
    def installed(self, hubsim):
        saved = []
        try:
            for owner, attr, func, info in _targets(hubsim):
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(
                    original, func, getattr(owner, "__name__", ""), info))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct
        children (calls nest, so the children never overlap)."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, child)]

    def write(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w") as fh:
            for span, self_s in zip(self.spans, selfs):
                fh.write(json.dumps({
                    "id": span.id, "layer": span.layer, "func": span.func,
                    "site": span.site, "parent": span.parent,
                    "solve": span.solve, "start": span.start,
                    "end": span.end, "self_s": self_s, **span.info}) + "\n")


def layer_metrics(tracer: Tracer, solve_ids: list[int]) -> dict[str, float]:
    """Per-solve means of the per-layer counts and self times over the
    given traced solves."""
    selfs = tracer.self_times()
    n = len(solve_ids)
    wanted = set(solve_ids)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    expg_keys: dict[int, set] = defaultdict(set)
    aa_degree: dict[int, int] = defaultdict(int)
    extract_amps = 0
    extract_width = 0
    for span, s in zip(tracer.spans, selfs):
        if span.solve not in wanted:
            continue
        calls[span.func] += 1
        self_s[span.func] += s
        if span.func == "ffhub.build_expG":
            expg_keys[span.solve].add((span.info["t"], span.info["eps"]))
        elif span.func == "qstate.extract_block":
            extract_amps += 2 ** span.info["width"] * 2 ** span.info["n_sys"]
            extract_width = max(extract_width, span.info["width"])
        elif span.func == "blockenc.fixed_point_aa" and span.info:
            aa_degree[span.solve] = max(aa_degree[span.solve],
                                        span.info["degree"])
    expg_calls = calls["ffhub.build_expG"]
    distinct = sum(len(keys) for keys in expg_keys.values())
    return {
        "dyson.segment_builds": calls["dyson.dyson_segment"] / n,
        "dyson.segment_s": self_s["dyson.dyson_segment"] / n,
        "dyson.select_s": self_s["dyson.build_selectG"] / n,
        "dyson.solve_self_s": self_s["dyson.simulate_full"] / n,
        "qstate.extract_calls": calls["qstate.extract_block"] / n,
        "qstate.extract_s": self_s["qstate.extract_block"] / n,
        "qstate.extract_max_width": extract_width,
        "qstate.extract_amplitudes": extract_amps / n,
        "ffhub.expG_builds": expg_calls / n,
        # no build means no repeated build: nothing was wasted
        "ffhub.expG_distinct_ratio": distinct / expg_calls if expg_calls else 1.0,
        "ffhub.expG_s": self_s["ffhub.build_expG"] / n,
        "ffhub.rotation_s": self_s["ffhub.classical_expG_apply"] / n,
        "blockenc.aa_builds": calls["blockenc.fixed_point_aa"] / n,
        "blockenc.aa_s": self_s["blockenc.fixed_point_aa"] / n,
        "blockenc.aa_degree_segment": sum(aa_degree[i] for i in solve_ids) / n,
        "blockenc.block_calls": calls["blockenc.block"] / n,
        "blockenc.block_s": self_s["blockenc.block"] / n,
        "blockenc.apply_s": self_s["blockenc.apply_block"] / n,
        "sparse_enc.h2_builds": calls["sparse_enc.encode_H2"] / n,
        "sparse_enc.h2_s": self_s["sparse_enc.encode_H2"] / n,
        "netgraph.validate_calls": calls["netgraph.validate"] / n,
        "netgraph.validate_s": self_s["netgraph.validate"] / n,
    }


def solve_self_sums(tracer: Tracer) -> dict[int, float]:
    """Sum of the self times of every span of each solve."""
    sums: dict[int, float] = defaultdict(float)
    for span, s in zip(tracer.spans, tracer.self_times()):
        if span.solve is not None:
            sums[span.solve] += s
    return sums
