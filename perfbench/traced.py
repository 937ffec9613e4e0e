"""The traced run (``--trace 1``): per-layer metrics of one workload pass.

Order of work:
1. kernel probe: the public kernels at dims 8, 32, 128 and 256, untraced;
2. import probe: ``python -X importtime -c "import epkit.cli"``;
3. one untraced pass of the workload's commands, then one traced pass;
4. when the pass never reaches a layer (the verifiers in ``harness``, the
   diagonal families in ``models``, ``fractional_abs_power``), a traced
   probe suite at dim 8 supplies that layer's metrics instead.

Counts depend only on the code path and the seed, so they repeat exactly
between two traced runs; times do not.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads
from tracer import (
    COMMAND,
    EIG_SPANS,
    FACTORIZATIONS,
    RUN_CHECK,
    TRIAL,
    Tracer,
    layer_of,
    self_times,
)

KERNEL_DIMS = (8, 32, 128, 256)
IMPORT_SAMPLES = 3
# Metric prefix -> span-name prefix that must appear in the workload's own
# pass for the metric to come from it rather than from the probe suite.
PROBE_FALLBACK = {
    "harness.": "harness.",
    "models.": "models.",
    "pinv.fractional_abs_power_self_s": "pinv.fractional_abs_power",
}


def _median_ms(fn, m, budget_s: float = 0.1, min_calls: int = 5) -> float:
    times = []
    spent = 0.0
    while len(times) < min_calls or spent < budget_s:
        t0 = perf_counter()
        fn(m)
        dt = perf_counter() - t0
        times.append(dt)
        spent += dt
    return statistics.median(times) * 1000.0


def kernel_probe(seed: int) -> dict[str, float]:
    """Median ms per call of each public kernel on a seeded EP matrix."""
    import epkit

    kernels = {
        "core.svd_ms": epkit.svd,
        "core.eigvals_ms": epkit.eigenvalues,
        "core.norm2_ms": epkit.operator_norm,
        "pinv.pseudoinverse_ms": epkit.pseudoinverse,
        "classify.classify_ms": epkit.classify,
    }
    out = {}
    for dim in KERNEL_DIMS:
        m = workloads.seeded_matrix(np.random.default_rng([seed, 7, dim]), dim, "ep")
        for key, fn in kernels.items():
            out[f"{key}.d{dim}"] = _median_ms(fn, m)
    return out


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(ms to import epkit.cli, ms spent importing scipy) from -X importtime.

    The listing is post-order with two spaces of indent per level.  scipy
    time is the cumulative time of every scipy module not imported from
    inside another scipy module.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, int(cum), name.strip()))
    epkit_us = sum(cum for depth, cum, name in rows if depth == 0 and name.split(".")[0] == "epkit")
    scipy_us = 0
    stack: list[tuple[int, bool]] = []  # (depth, inside scipy) of open ancestors
    for depth, cum, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not inside:
            scipy_us += cum
        stack.append((depth, inside or is_scipy))
    return epkit_us / 1000.0, scipy_us / 1000.0


def import_probe(env: dict) -> dict[str, float]:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import epkit.cli"],
                              env=env, capture_output=True, text=True, check=True)
        samples.append(parse_importtime(proc.stderr))
    return {
        "cli.import_ms": statistics.median(s[0] for s in samples),
        "cli.import_scipy_ms": statistics.median(s[1] for s in samples),
    }


def traced_pass(commands, check, out) -> tuple[Tracer, float]:
    tracer = Tracer()
    with tracer:
        wall = workloads.run_pass(commands, check, out)
    return tracer, wall


def layer_metrics(tr: Tracer, items: int, untraced_s: float, theorem_ids) -> dict[str, float]:
    """Per-layer metrics from one traced pass of ``items`` trials."""
    cols = tr.columns()
    name, parent = cols["name"], cols["parent"]
    names = tr.names
    n_names = len(names)
    self_ = self_times(cols["start"], cols["end"], parent)
    dur = cols["end"] - cols["start"]
    count = np.bincount(name, minlength=n_names)
    self_by_name = np.bincount(name, weights=self_, minlength=n_names)

    def calls(span: str) -> int:
        return int(count[names.index(span)]) if span in names else 0

    def self_s(predicate) -> float:
        return float(sum(self_by_name[i] for i, n in enumerate(names) if predicate(n)))

    def layer_self(layer: str) -> float:
        return self_s(lambda n: layer_of(n) == layer)

    m: dict[str, float] = {}
    factorizations = sum(calls(f) for f in FACTORIZATIONS)
    svd_calls = calls("lapack.svd")
    m["core.factorizations_per_trial"] = factorizations / items
    m["core.svd_calls_per_trial"] = svd_calls / items
    m["core.norm2_calls_per_trial"] = calls("lapack.norm2") / items
    m["core.eig_calls_per_trial"] = sum(calls(e) for e in EIG_SPANS) / items
    m["core.as_matrix_calls_per_trial"] = calls("core.as_matrix") / items
    m["core.self_s"] = layer_self("core")
    m["core.lapack_self_s"] = layer_self("lapack")
    m["core.lapack_share"] = m["core.lapack_self_s"] / untraced_s
    m["subspace.self_s"] = layer_self("subspace")
    m["subspace.projector_gap_calls_per_trial"] = calls("subspace.projector_gap") / items
    m["subspace.inclusion_residual_calls_per_trial"] = calls("subspace.inclusion_residual") / items
    m["pinv.self_s"] = layer_self("pinv")
    m["pinv.pseudoinverse_calls_per_trial"] = calls("pinv.pseudoinverse") / items
    m["pinv.fractional_abs_power_self_s"] = self_s(lambda n: n == "pinv.fractional_abs_power")
    m["classify.self_s"] = layer_self("classify")
    m["classify.classify_calls"] = calls("classify.classify")
    m["classify.is_ep_calls_per_trial"] = calls("classify.is_ep") / items
    m["harness.self_s"] = layer_self("harness")
    m["models.self_s"] = layer_self("models")
    m["models.realize_calls"] = calls("models.realize")
    commands = max(calls(COMMAND), 1)
    m["cli.serialize_ms"] = 1000.0 * self_s(lambda n: n.startswith("serialize.")) / commands

    # Each span's unit: its nearest enclosing verifier run, else its command.
    unit_ids = {i for i, n in enumerate(names) if n == COMMAND or n.startswith(RUN_CHECK + ":")}
    unit = [-1] * len(name)
    for i, (nid, p) in enumerate(zip(name.tolist(), parent.tolist())):
        unit[i] = i if nid in unit_ids else (unit[p] if p >= 0 else -1)

    distinct: dict[int, set] = {}
    for i, digest in tr.svd_inputs:
        distinct.setdefault(unit[i], set()).add(digest)
    m["core.svd_unique_ratio"] = (
        sum(len(s) for s in distinct.values()) / svd_calls if svd_calls else 1.0
    )

    # Per verifier: trials are the trial spans directly under its runs.
    fact_ids = {names.index(f) for f in FACTORIZATIONS if f in names}
    trial_id = names.index(TRIAL) if TRIAL in names else -1
    run_ms: dict[str, float] = {}
    run_trials: dict[str, int] = {}
    run_facts: dict[str, int] = {}
    name_list = name.tolist()
    parent_list = parent.tolist()
    for i, nid in enumerate(name_list):
        label = names[nid]
        if label.startswith(RUN_CHECK + ":"):
            tid = label.split(":", 1)[1]
            run_ms[tid] = run_ms.get(tid, 0.0) + 1000.0 * float(dur[i])
        elif nid == trial_id:
            tid = names[name_list[parent_list[i]]].split(":", 1)[1]
            run_trials[tid] = run_trials.get(tid, 0) + 1
        elif nid in fact_ids and unit[i] >= 0 and names[name_list[unit[i]]].startswith(RUN_CHECK):
            tid = names[name_list[unit[i]]].split(":", 1)[1]
            run_facts[tid] = run_facts.get(tid, 0) + 1
    for tid in theorem_ids:
        trials = run_trials.get(tid, 0)
        m[f"harness.{tid}.ms_per_trial"] = run_ms.get(tid, 0.0) / trials if trials else 0.0
        m[f"harness.{tid}.factorizations_per_trial"] = (
            run_facts.get(tid, 0) / trials if trials else 0.0
        )
    m["trace.spans"] = len(name)
    m["trace.svd_digest_s"] = self_s(lambda n: layer_of(n) == "trace")
    return m


def unit_of(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith(("_ms", "ms_per_trial")) or "_ms.d" in key:
        return "ms"
    if key.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def sanity_anchor(seed: int) -> dict[str, int]:
    """Factorizations in one 8 x 8 classify (1 SVD, 6 two-norms, 1 eigvals at seed)."""
    import epkit

    m = workloads.seeded_matrix(np.random.default_rng([seed, 8]), 8, "ep")
    tracer = Tracer()
    with tracer:
        epkit.classify(m)
    return {span: int(sum(1 for n in tracer.name if tracer.names[n] == span))
            for span in FACTORIZATIONS}


def run(workload, seed: int, env: dict, spans_path: Path, out) -> tuple[dict, dict]:
    """Traced run of ``workload``; returns (per-layer metrics, extra info)."""
    from epkit import THEOREM_IDS

    metrics = kernel_probe(seed)
    metrics.update(import_probe(env))
    commands = workload.commands()
    untraced_s = workloads.run_pass(commands, workload.check, out)
    tracer, traced_s = traced_pass(commands, workload.check, out)
    tracer.save(spans_path)
    layer = layer_metrics(tracer, workload.items(), untraced_s, THEOREM_IDS)

    called = tracer.called()
    probe_used = []
    for key, span_prefix in PROBE_FALLBACK.items():
        if any(n.startswith(span_prefix) for n in called):
            continue
        if not probe_used:
            probe_suite = workloads.Suite("probe-suite", dim=8, trials=10)
            probe_suite.prepare(seed, spans_path.parent)
            probe_tr, _ = traced_pass(probe_suite.commands(), probe_suite.check, out)
            probe = layer_metrics(probe_tr, probe_suite.items(), 1.0, THEOREM_IDS)
        probe_used.append(key)
        layer.update({k: v for k, v in probe.items() if k.startswith(key)})
    metrics.update(layer)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    info = {
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "metrics_from_probe_suite": probe_used,
        "trial_spans": int(sum(1 for n in tracer.name if tracer.names[n] == TRIAL)),
        "sanity_anchor_classify_d8": sanity_anchor(seed),
        "spans_file": str(spans_path.name),
    }
    return metrics, info
