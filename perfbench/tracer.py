"""Span tracer for the traced benchmark run (``--trace 1``).

The tracer wraps, from outside the package, every public function of the
epkit layer modules and the ``numpy.linalg`` entry points that run LAPACK.
Each wrapped call records one span: name, start, end, parent span and trial
id.  Spans stay in flat in-memory columns until the run ends.

Untimed runs never import this module, so they carry none of its cost.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import math
import sys
from array import array
from time import perf_counter

import numpy as np

LAYER_MODULES = ("core", "subspace", "pinv", "classify", "harness", "models", "serialize", "cli")

# numpy.linalg entry points whose spans make up LAPACK time.  Every one but
# qr counts as a factorization; norm only when it is the 2-norm of a matrix,
# since that runs an SVD.
LAPACK_FUNCTIONS = ("svd", "eigvals", "eigh", "eigvalsh", "qr", "norm")
FACTORIZATIONS = ("lapack.svd", "lapack.norm2", "lapack.eigvals", "lapack.eigh", "lapack.eigvalsh")
EIG_SPANS = ("lapack.eigvals", "lapack.eigh", "lapack.eigvalsh")

TRIAL = "harness.trial"
RUN_CHECK = "harness.run_theorem_check"
COMMAND = "cli.main"
DIGEST = "trace.svd_digest"


def layer_of(name: str) -> str:
    """Layer a span name belongs to; ``serialize`` is counted with ``cli``."""
    layer = name.split(".", 1)[0]
    return "cli" if layer == "serialize" else layer


class Tracer:
    """Records spans of wrapped calls while installed.

    A verifier trial has no function of its own: its span opens when
    ``run_theorem_check`` seeds the trial's generator with
    ``(seed, salt, t)`` (the seeding contract in ``epkit.harness``) and
    closes at the next trial or when the verifier returns.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.trial = array("l")
        self.svd_inputs: list[tuple[int, bytes]] = []
        self.other_norms = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.name)
        parent = self._stack[-1] if self._stack else -1
        self.name.append(nid)
        self.start.append(perf_counter())
        self.end.append(math.nan)
        self.parent.append(parent)
        if nid == self._command_id or nid == self._trial_id:
            self.trial.append(i)
        else:
            self.trial.append(self.trial[parent] if parent >= 0 else -1)
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        """Close span ``i`` and any open-ended trial span still above it."""
        t = perf_counter()
        while self._stack:
            j = self._stack.pop()
            self.end[j] = t
            if j == i:
                break

    def _wrap(self, name: str, fn):
        nid = self.intern(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return wrapper

    def _wrap_run_check(self, fn):
        open_, close, intern = self.open, self.close, self.intern

        @functools.wraps(fn)
        def wrapper(theorem_id, *args, **kwargs):
            i = open_(intern(f"{RUN_CHECK}:{theorem_id}"))
            try:
                return fn(theorem_id, *args, **kwargs)
            finally:
                close(i)

        return wrapper

    def _wrap_svd(self, fn):
        nid = self.intern("lapack.svd")
        digest_id = self.intern(DIGEST)
        open_, close, inputs = self.open, self.close, self.svd_inputs

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            i = open_(nid)
            try:
                return fn(a, *args, **kwargs)
            finally:
                close(i)
                # Hashing gets a span of its own so that its cost shows as
                # tracing time, not as self time of the caller.
                j = open_(digest_id)
                arr = np.ascontiguousarray(a)
                key = f"{arr.dtype.str}{arr.shape}".encode() + arr.tobytes()
                inputs.append((i, hashlib.blake2b(key, digest_size=16).digest()))
                close(j)

        return wrapper

    def _wrap_norm(self, fn):
        nid = self.intern("lapack.norm2")
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def wrapper(x, ord=None, axis=None, keepdims=False):
            if ord == 2 and axis is None and np.ndim(x) == 2:
                i = open_(nid)
                try:
                    return fn(x, ord, axis, keepdims)
                finally:
                    close(i)
            self.other_norms += 1
            return fn(x, ord, axis, keepdims)

        return wrapper

    def _wrap_rng(self, fn):
        """Open a trial span when a verifier seeds a trial's generator."""
        trial_id = self._trial_id
        open_, close, stack, name, names = self.open, self.close, self._stack, self.name, self.names

        @functools.wraps(fn)
        def wrapper(seed=None, *args, **kwargs):
            if stack and isinstance(seed, (list, tuple)) and len(seed) == 3:
                if name[stack[-1]] == trial_id:
                    close(stack[-1])
                if stack and names[name[stack[-1]]].startswith(RUN_CHECK + ":"):
                    open_(trial_id)
            return fn(seed, *args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap layer functions and LAPACK entry points; rebind every alias."""
        import epkit  # noqa: F401  (loads every layer module)
        import epkit.cli  # noqa: F401

        self._command_id = self.intern(COMMAND)
        self._trial_id = self.intern(TRIAL)
        replacements: dict[int, tuple] = {}
        for layer in LAYER_MODULES:
            mod = sys.modules[f"epkit.{layer}"]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                if layer == "harness" and attr == "run_theorem_check":
                    replacements[id(fn)] = (fn, self._wrap_run_check(fn))
                else:
                    replacements[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for attr in LAPACK_FUNCTIONS:
            fn = getattr(np.linalg, attr)
            if attr == "svd":
                wrapped = self._wrap_svd(fn)
            elif attr == "norm":
                wrapped = self._wrap_norm(fn)
            else:
                wrapped = self._wrap(f"lapack.{attr}", fn)
            replacements[id(fn)] = (fn, wrapped)
        rng = np.random.default_rng
        replacements[id(rng)] = (rng, self._wrap_rng(rng))

        targets = [np.linalg, np.random]
        targets += [m for n, m in sys.modules.items() if n == "epkit" or n.startswith("epkit.")]
        for mod in targets:
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading -----------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        """Spans as numpy columns; ``name`` indexes ``self.names``."""
        return {
            "name": np.array(self.name, dtype=np.int64),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int64),
            "trial": np.array(self.trial, dtype=np.int64),
        }

    def called(self) -> set[str]:
        """Names of the wrapped functions that ran at least once."""
        return {self.names[i] for i in set(self.name)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.columns())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread's call stack, so children of one parent
    never overlap and their durations can simply be summed.
    """
    dur = end - start
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered
