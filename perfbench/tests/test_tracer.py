"""Tests of the benchmark's own instrument: counters, aliases, self time.

    python3 -m pytest perfbench/tests -q -s
"""

import importlib
import subprocess
import sys
from collections import Counter

import numpy as np

import traced
import workloads
from conftest import BENCH
from tracer import Tracer, self_times


def span_names(tr: Tracer) -> list[str]:
    return [tr.names[i] for i in tr.name]


def test_two_norm_counts_as_factorization_but_frobenius_does_not():
    import epkit

    m = np.arange(16, dtype=complex).reshape(4, 4)
    tr = Tracer()
    with tr:
        np.linalg.norm(m, 2)
        epkit.operator_norm(m)
        np.linalg.norm(m)
        np.linalg.norm(m, "fro")
        np.linalg.norm(m[0], 2)
    assert span_names(tr).count("lapack.norm2") == 2
    assert tr.other_norms == 3


def test_aliased_imports_are_seen_and_restored():
    # ``epkit.classify`` the attribute is the function; the module is in sys.modules.
    classify_mod = importlib.import_module("epkit.classify")
    from epkit import core, harness

    original = core.svd
    m = workloads.seeded_matrix(np.random.default_rng(1), 8, "ep")
    tr = Tracer()
    with tr:
        assert classify_mod.svd is core.svd is harness.svd
        assert classify_mod.svd is not original
        classify_mod.is_ep(m)
    names = span_names(tr)
    assert names[0] == "classify.is_ep"
    assert "core.svd" in names and "lapack.svd" in names
    assert classify_mod.svd is original and harness.svd is original


def traced_verify_counts():
    tr = Tracer()
    with tr:
        code, _, _ = workloads.run_cli(
            ["verify", "thm2.5", "--dim", "8", "--rank", "6", "--trials", "6", "--seed", "3"])
    assert code == 0
    layer = traced.layer_metrics(tr, 6, 1.0, ["thm2.5"])
    counts = {k: v for k, v in layer.items() if traced.unit_of(k) in ("count", "ratio")}
    counts.pop("core.lapack_share")
    return Counter(span_names(tr)), counts


def test_counts_repeat_exactly_between_two_traced_runs():
    first, first_layer = traced_verify_counts()
    second, second_layer = traced_verify_counts()
    assert first == second
    assert first_layer == second_layer
    assert first["harness.trial"] == 6
    assert first_layer["harness.thm2.5.factorizations_per_trial"] > 0


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 6] > (b [2, 4], c [5, 6]);  root > d [7, 9]
    start = np.array([0.0, 1.0, 2.0, 5.0, 7.0])
    end = np.array([10.0, 6.0, 4.0, 6.0, 9.0])
    parent = np.array([-1, 0, 1, 1, 0])
    assert self_times(start, end, parent).tolist() == [3.0, 2.0, 2.0, 1.0, 2.0]


def test_importtime_counts_only_outermost_scipy_modules():
    listing = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |         scipy._lib",
        "import time:        20 |         30 |       scipy",
        "import time:       100 |        200 |     scipy.linalg",
        "import time:         5 |          5 |     numpy.core",
        "import time:        50 |        300 |   epkit.subspace",
        "import time:        40 |        400 |     scipy.optimize",
        "import time:        60 |        500 |   epkit.harness",
        "import time:        70 |       1000 | epkit",
    ])
    epkit_ms, scipy_ms = traced.parse_importtime(listing)
    assert epkit_ms == 1.0
    assert scipy_ms == 0.6


def test_model_rows_are_checked_against_analytic_values():
    good = {"n": 5, "gamma": 0.2, "spectral_radius": 4.0, "is_ep": True, "pinv_norm": 5.0}
    assert workloads.ModelSweep.row_matches(good)
    assert not workloads.ModelSweep.row_matches({**good, "gamma": 0.2 + 1e-9})
    assert not workloads.ModelSweep.row_matches({**good, "is_ep": False})


def test_seeded_inputs_have_the_family_they_claim():
    import epkit

    for dim in (8, 32):
        for family in ("ep", "non_ep"):
            m = workloads.seeded_matrix(np.random.default_rng([4, dim]), dim, family)
            report = epkit.classify(m)
            assert report.rank == np.linalg.matrix_rank(m) == dim - 2
            assert report.is_ep == (family == "ep")


def test_untraced_modules_do_not_import_the_tracer():
    code = "import sys, run, workloads; sys.exit('tracer' in sys.modules or 'traced' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH)
    assert proc.returncode == 0


def test_sanity_anchor_is_reported():
    anchor = traced.sanity_anchor(0)
    print(f"\nsanity anchor, one 8x8 classify: {anchor}")
    assert anchor == traced.sanity_anchor(0)
