import numpy as np
import pytest

from epkit import (
    FAMILIES,
    InvalidDimension,
    InvalidSpec,
    MAX_DIM,
    classify,
    harmonic_truncation,
    is_normal,
    limit_study,
    pseudoinverse,
    realize,
)


class TestRealize:
    def test_diag_n_values(self, tol):
        m = realize("diag_n", 3)
        np.testing.assert_array_equal(m, np.diag([1.0, 2.0, 3.0]).astype(complex))
        rep = classify(m, tol)
        assert rep.is_ep and rep.gamma == pytest.approx(1.0)
        assert rep.spectral_radius == pytest.approx(3.0)

    def test_harmonic_truncated_embedded(self, tol):
        m = harmonic_truncation(4, 6)
        np.testing.assert_allclose(
            np.diagonal(m).real, [1.0, 0.5, 1.0 / 3.0, 0.25, 0.0, 0.0]
        )
        rep = classify(m, tol)
        assert rep.is_ep
        assert rep.gamma == pytest.approx(0.25)

    def test_mult_inv_sqrt_midpoints(self):
        m = realize("mult_inv_sqrt", 2)
        np.testing.assert_allclose(np.diagonal(m).real, [2.0, 2.0 / np.sqrt(3.0)])
        for n in (1, 3, 10, 30):
            entries = np.diagonal(realize("mult_inv_sqrt", n)).real
            assert np.all(entries >= 1.0)

    def test_alternating_entries(self):
        entries = np.diagonal(realize("diag_alternating", 6)).real
        np.testing.assert_allclose(entries, [1.0, 2.0, 1.0 / 3.0, 4.0, 0.2, 6.0])

    def test_rejects_bad_truncation(self):
        with pytest.raises(InvalidDimension):
            realize("diag_n", 0)

    def test_rejects_unknown_family(self):
        with pytest.raises(InvalidSpec):
            realize("bogus", 3)

    def test_family_list(self):
        assert set(FAMILIES) == {
            "mult_inv_sqrt",
            "diag_n",
            "diag_alternating",
            "diag_harmonic_truncated",
        }


class TestLimitStudy:
    def test_harmonic_gamma_column(self, tol):
        rows = limit_study("diag_harmonic_truncated", 10, tol)
        assert [row["n"] for row in rows] == list(range(1, 11))
        for row in rows:
            assert row["is_ep"]
            assert row["gamma"] == pytest.approx(1.0 / row["n"], abs=1e-14)
            assert row["pinv_norm"] == pytest.approx(float(row["n"]), abs=1e-12)

    def test_diag_n_columns(self, tol):
        rows = limit_study("diag_n", 10, tol)
        for row in rows:
            assert row["gamma"] == pytest.approx(1.0, abs=1e-14)
            assert row["spectral_radius"] == pytest.approx(float(row["n"]), abs=1e-12)
            assert row["is_ep"]

    def test_alternating_gamma_is_min_entry(self, tol):
        rows = limit_study("diag_alternating", 10, tol)
        for row in rows:
            n = row["n"]
            entries = [k if k % 2 == 0 else 1.0 / k for k in range(1, n + 1)]
            entries[0] = 1.0
            assert row["gamma"] == pytest.approx(min(entries), abs=1e-14)

    def test_rejects_small_window(self, tol):
        with pytest.raises(InvalidDimension):
            limit_study("diag_n", 1, tol)

    @pytest.mark.parametrize(
        "family,n_max,message",
        [
            ("diag_n", 300, "truncation of dimension 257 exceeds the 256 cap"),
            ("mult_inv_sqrt", 257, "truncation of dimension 257 exceeds the 256 cap"),
        ],
    )
    def test_rejects_a_bad_truncation_before_the_first_svd(
        self, svd_calls, tol, family, n_max, message
    ):
        # The error of the first truncation past the limit, raised before
        # the loop factors any of the valid ones.
        with pytest.raises(InvalidDimension) as exc:
            limit_study(family, n_max, tol)
        assert str(exc.value) == message
        assert svd_calls["full"] == svd_calls["values"] == 0


class TestFamilyInvariants:
    def test_all_families_normal_hence_ep(self, tol):
        for family in FAMILIES:
            m = realize(family, 7)
            assert is_normal(m, tol)
            assert classify(m, tol).is_ep

    def test_gamma_equals_min_nonzero_diagonal(self, tol):
        for family in FAMILIES:
            for n in (2, 5, 11):
                m = realize(family, n)
                entries = np.abs(np.diagonal(m))
                expected = entries[entries > 0].min()
                assert classify(m, tol).gamma == pytest.approx(expected, abs=1e-14)

    def test_harmonic_pinv_norm_feeds_divergence_study(self, tol):
        from epkit import operator_norm, pseudoinverse

        for n in (3, 10, 25):
            m = harmonic_truncation(n, n + 2)
            assert operator_norm(pseudoinverse(m, tol)) == pytest.approx(float(n), abs=1e-12)


def harmonic_truncation_reference(n, ambient_dim):
    m = np.zeros((ambient_dim, ambient_dim), dtype=np.complex128)
    for k in range(1, n + 1):
        m[k - 1, k - 1] = 1.0 / k
    return m


class TestHarmonicTruncation:
    @pytest.mark.parametrize("n,ambient_dim", [(1, 1), (4, 6), (12, 20), (31, 256)])
    def test_matches_reference_bit_for_bit(self, n, ambient_dim):
        m = harmonic_truncation(n, ambient_dim)
        expected = harmonic_truncation_reference(n, ambient_dim)
        assert m.dtype == expected.dtype and m.shape == expected.shape
        assert m.tobytes() == expected.tobytes()

    def test_rejects_an_ambient_dimension_below_the_truncation(self):
        with pytest.raises(InvalidDimension, match="ambient dimension 3 is smaller than truncation 5"):
            harmonic_truncation(5, 3)

    def test_rejects_an_ambient_dimension_past_the_cap(self):
        with pytest.raises(InvalidDimension, match="exceeds the 256 cap"):
            harmonic_truncation(4, MAX_DIM + 1)


def limit_study_reference(family, n_max, tol):
    """The truncation loop with a classification and a fresh pseudoinverse each."""
    rows = []
    for n in range(1, n_max + 1):
        m = realize(family, n)
        report = classify(m, tol)
        rows.append(
            {
                "n": n,
                "gamma": report.gamma,
                "spectral_radius": report.spectral_radius,
                "is_ep": report.is_ep,
                "pinv_norm": float(np.linalg.norm(pseudoinverse(m, tol), 2)),
            }
        )
    return rows


class TestLimitStudySharesOneFactorization:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_rows_match_reference_bit_for_bit(self, tol, family):
        assert limit_study(family, 40, tol) == limit_study_reference(family, 40, tol)
