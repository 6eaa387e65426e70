"""Layer probes of the traced run: tree sizes, evaluator cost, differentiation.

Everything here goes through the public ``algmech`` API and walks the public
``Expr`` node dataclasses, so it keeps working when the node set grows.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

PROBE_SAMPLES = 10
PROBE_REPEATS = 3


def _children(node) -> list:
    kids = []
    pending = [getattr(node, f.name) for f in dataclasses.fields(node)]
    while pending:
        value = pending.pop()
        if isinstance(value, tuple):
            pending.extend(value)
        elif dataclasses.is_dataclass(value):
            kids.append(value)
    return kids


def node_counts(roots) -> tuple[int, int]:
    """(unique DAG nodes, expanded tree nodes) of a forest, without recursion.

    Expanded sizes are summed per root, so a subtree shared by two roots, or
    twice within one, counts every time it appears.
    """
    size: dict[int, int] = {}
    stack = [(root, False) for root in roots]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if key in size:
            continue
        kids = _children(node)
        if expanded:
            size[key] = 1 + sum(size[id(k)] for k in kids)
        else:
            stack.append((node, True))
            stack.extend((k, False) for k in kids if id(k) not in size)
    return len(size), sum(size[id(root)] for root in roots)


def _median_seconds(fn) -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run(configs, differentiate) -> dict[str, float]:
    """Probe metrics summed over the workload's systems."""
    totals = dict.fromkeys(
        (
            "lagrangian.semispray.dag_nodes",
            "lagrangian.semispray.tree_nodes",
            "connection.coeffs.dag_nodes",
            "connection.coeffs.tree_nodes",
        ),
        0,
    )
    jet_s = value_s = diff_s = 0.0
    evaluated = 0
    for cfg in configs:
        alg = cfg.algebroid
        S = list(cfg.semispray().components)
        N = [c for row in cfg.connection().coeffs for c in row]
        for prefix, roots in (("lagrangian.semispray", S), ("connection.coeffs", N)):
            dag, tree = node_counts(roots)
            totals[f"{prefix}.dag_nodes"] += dag
            totals[f"{prefix}.tree_nodes"] += tree
        points = cfg.sample_points(count=PROBE_SAMPLES)
        nodes = node_counts(S + N)[0]
        evaluated += nodes * len(points)

        def jets():
            for p in points:
                ev = alg.evaluator(p)
                for e in S + N:
                    ev.jet(e)

        def values():
            for p in points:
                ev = alg.evaluator(p)
                for e in S + N:
                    ev.value(e)

        def derivatives():
            for e in N:
                for name in alg.coords:
                    differentiate(e, name)

        jet_s += _median_seconds(jets)
        value_s += _median_seconds(values)
        diff_s += _median_seconds(derivatives)
    totals["jets.jet.ns_per_node"] = jet_s * 1e9 / evaluated
    totals["jets.value.ns_per_node"] = value_s * 1e9 / evaluated
    totals["expr.differentiate.self_s"] = diff_s
    return totals
