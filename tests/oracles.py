"""Independent oracles used to freeze expected values in the tests.

Nothing here goes through the library's factorization kernels: products are
naive triple loops, characteristic polynomials are computed exactly over
Gaussian rationals with sympy and rooted at high precision with mpmath,
orthonormalization is textbook Gram-Schmidt, and the spectral radius oracle
is the norm-of-powers limit evaluated by repeated squaring.  The generator
families are copies of their one-matrix form, one QR per Haar unitary.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
import numpy as np
import sympy
from scipy.optimize import linear_sum_assignment


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    rows, inner = a.shape
    inner2, cols = b.shape
    assert inner == inner2
    out = np.zeros((rows, cols), dtype=np.complex128)
    for i in range(rows):
        for j in range(cols):
            acc = 0j
            for k in range(inner):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def entrywise_adjoint(m: np.ndarray) -> np.ndarray:
    rows, cols = m.shape
    out = np.zeros((cols, rows), dtype=np.complex128)
    for i in range(rows):
        for j in range(cols):
            out[j, i] = m[i, j].conjugate()
    return out


def snapped_complex_matrix(rng: np.random.Generator, n: int, denominator: int = 64) -> np.ndarray:
    """Random complex matrix whose entries are exact multiples of 1/denominator."""
    re = rng.integers(-2 * denominator, 2 * denominator + 1, size=(n, n))
    im = rng.integers(-2 * denominator, 2 * denominator + 1, size=(n, n))
    return (re + 1j * im) / denominator


def charpoly_roots(m: np.ndarray, denominator: int = 64) -> np.ndarray:
    """Exact characteristic polynomial roots for a rationally-snapped matrix.

    Entries must be exact multiples of 1/denominator (real and imaginary
    parts).  The characteristic polynomial is computed exactly over the
    Gaussian rationals, then rooted with mpmath at 50 decimal digits.
    """
    n = m.shape[0]
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            re = Fraction(m[i, j].real).limit_denominator(denominator)
            im = Fraction(m[i, j].imag).limit_denominator(denominator)
            assert float(re) == m[i, j].real and float(im) == m[i, j].imag
            row.append(sympy.Rational(re.numerator, re.denominator)
                       + sympy.I * sympy.Rational(im.numerator, im.denominator))
        entries.append(row)
    poly = sympy.Matrix(entries).charpoly()
    coeffs = [sympy.simplify(c) for c in poly.all_coeffs()]
    with mpmath.workdps(50):
        mp_coeffs = [mpmath.mpc(sympy.re(c), sympy.im(c)) for c in coeffs]
        roots = mpmath.polyroots(mp_coeffs, maxsteps=200, extraprec=120)
        return np.array([complex(r) for r in roots])


def gram_schmidt(columns: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns (assumed independent), classic Gram-Schmidt."""
    out = []
    for j in range(columns.shape[1]):
        v = columns[:, j].astype(np.complex128)
        for u in out:
            v = v - (u.conj() @ v) * u
        norm = np.sqrt((v.conj() @ v).real)
        assert norm > 1e-12, "oracle expects independent columns"
        out.append(v / norm)
    return np.stack(out, axis=1)


def multiset_gap(xs: np.ndarray, ys: np.ndarray) -> float:
    """Largest cost of the sum-minimizing matching between two equal-size multisets.

    An upper bound on their bottleneck distance, which it can exceed.
    """
    xs = np.asarray(xs, dtype=np.complex128).ravel()
    ys = np.asarray(ys, dtype=np.complex128).ravel()
    assert xs.size == ys.size
    if xs.size == 0:
        return 0.0
    cost = np.abs(xs[:, None] - ys[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def lapack_eigenvalues(m) -> np.ndarray:
    """numpy's general eigenvalues of m, as complex128 in ``eigenvalues``' order."""
    vals = np.linalg.eigvals(np.asarray(m)).astype(np.complex128)
    return vals[np.lexsort((-vals.imag, -vals.real))]


def gelfand_radius(m: np.ndarray, power: int = 64) -> float:
    """Spectral radius estimate ||M^k||^(1/k) by repeated squaring (k a power of 2)."""
    assert power & (power - 1) == 0, "power must be a power of two"
    acc = m.astype(np.complex128)
    k = 1
    while k < power:
        acc = acc @ acc
        k *= 2
    norm = float(np.linalg.norm(acc, 2))
    return norm ** (1.0 / power)


def random_matrix(
    rng: np.random.Generator,
    rows: int,
    cols: int,
    rank: int,
    cond: float = 50.0,
) -> np.ndarray:
    """Random rows x cols matrix of the requested rank and condition.

    Orthonormal factors come from QR of Gaussian matrices (not from the
    library), singular values are log-spaced between smax and smax/cond.
    """
    assert 0 <= rank <= min(rows, cols)
    if rank == 0:
        return np.zeros((rows, cols), dtype=np.complex128)
    gu = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
    gv = rng.standard_normal((cols, rank)) + 1j * rng.standard_normal((cols, rank))
    qu, _ = np.linalg.qr(gu)
    qv, _ = np.linalg.qr(gv)
    smax = rng.uniform(0.5, 2.0)
    if rank == 1:
        s = np.array([smax])
    else:
        s = smax * np.exp(np.linspace(0.0, -np.log(cond), rank))
    return (qu * s) @ qv.conj().T


# The one-matrix generators as they stood before generation was batched:
# each Haar unitary comes from its own QR, drawn and factored in turn.  A
# batched draw of the harness must equal them bit for bit.


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    phases = np.where(np.abs(d) > 0, d / np.abs(np.where(np.abs(d) > 0, d, 1.0)), 1.0)
    return q * phases.conj()


def conditioned_invertible(rng: np.random.Generator, n: int, condition_bound: float) -> np.ndarray:
    smax = rng.uniform(0.5, 2.0)
    cond = float(np.exp(rng.uniform(0.0, np.log(max(condition_bound, 1.0)))))
    if n == 1:
        s = np.array([smax])
    else:
        interior = np.exp(rng.uniform(np.log(smax / cond), np.log(smax), size=n - 2))
        s = np.concatenate(([smax], np.sort(interior)[::-1], [smax / cond]))
    u = haar_unitary(rng, n)
    v = haar_unitary(rng, n)
    return (u * s) @ v.conj().T


def embed_conjugated(v: np.ndarray, block: np.ndarray) -> np.ndarray:
    k = block.shape[0]
    b = np.zeros(v.shape, dtype=np.complex128)
    b[:k, :k] = block
    return v @ b @ v.conj().T


def gen_ep(rng, dim, rank, cond) -> np.ndarray:
    if rank == 0:
        return np.zeros((dim, dim), dtype=np.complex128)
    block = conditioned_invertible(rng, rank, cond)
    return embed_conjugated(haar_unitary(rng, dim), block)


def gen_non_ep(rng, dim, rank, cond) -> np.ndarray:
    block = np.zeros((rank + 1, rank + 1), dtype=np.complex128)
    block[0, 1] = rng.uniform(0.5, 2.0)
    if rank > 1:
        block[2:, 2:] = conditioned_invertible(rng, rank - 1, cond)
    return embed_conjugated(haar_unitary(rng, dim), block)


def gen_normal_ep(rng, dim, rank, cond) -> np.ndarray:
    smax = rng.uniform(0.5, 2.0)
    mags = smax * np.exp(rng.uniform(-np.log(max(cond, 1.0)), 0.0, size=rank))
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=rank))
    lam = np.zeros(dim, dtype=np.complex128)
    lam[:rank] = mags * phases
    v = haar_unitary(rng, dim)
    return (v * lam) @ v.conj().T


def gen_aligned_ep_pair(rng, dim, rank, cond) -> tuple[np.ndarray, np.ndarray]:
    """thm2.12's aligned pair: two invertible blocks conjugated by one shared unitary."""
    v = haar_unitary(rng, dim)
    a1 = conditioned_invertible(rng, rank, cond)
    a2 = conditioned_invertible(rng, rank, cond)
    return embed_conjugated(v, a1), embed_conjugated(v, a2)


GENERATORS = {
    "ep": gen_ep,
    "non_ep": gen_non_ep,
    "normal_ep": gen_normal_ep,
    "aligned_ep_pair": gen_aligned_ep_pair,
}
