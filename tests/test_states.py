import math

import numpy as np
import pytest

from oracles import mix
from qrbg.errors import ParameterError
from qrbg.sources import _born_table, single_photon
from qrbg.states import (
    Decomposition,
    PureState,
    StokesVector,
    rotate_equatorial,
    worst_case_decomposition,
)


def random_ball(rng, count, radius=1.0):
    """Uniform points in the Bloch ball of the given radius."""
    v = rng.normal(size=(count, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = radius * rng.random(count) ** (1 / 3)
    return v * r[:, None]


def raw_matrix(s1, s2, s3):
    """Unvalidated matrix from Stokes components; the test-side oracle."""
    return 0.5 * np.array(
        [[1 + s3, s1 - 1j * s2], [s1 + 1j * s2, 1 - s3]], dtype=complex
    )


class TestStokesVector:
    def test_non_physical_rejected(self):
        with pytest.raises(ParameterError):
            StokesVector(0.9, 0.9, 0.9)
        with pytest.raises(ParameterError):
            StokesVector(1.5, 0, 0)


class TestPhysicalityMatchesPositivity:
    def test_inside_iff_psd(self, rng):
        # points across |s| in [0, 1.5]: constructor acceptance must agree
        # with the sign of the smallest eigenvalue of the raw matrix
        v = rng.normal(size=(4000, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        radii = 1.5 * rng.random(4000)
        for vec, r in zip(v, radii):
            s1, s2, s3 = vec * r
            eigmin = np.linalg.eigvalsh(raw_matrix(s1, s2, s3)).min()
            if r <= 1.0:
                StokesVector(s1, s2, s3)
                assert eigmin >= -1e-12
            elif r > 1.0 + 1e-9:
                with pytest.raises(ParameterError):
                    StokesVector(s1, s2, s3)
                assert eigmin < 0


def born_z(s):
    """Computational-basis outcome probabilities of the state with Bloch
    vector ``s``, read from the Born table that the sampler draws from."""
    p0 = float(_born_table(single_photon(s))[0][0, 0])
    return p0, 1.0 - p0


class TestBornProbabilities:
    def test_mixed(self):
        assert born_z(StokesVector(0, 0, 0)) == (0.5, 0.5)

    def test_pure_h(self):
        p0, p1 = born_z(StokesVector(0, 0, 1))
        assert p0 == pytest.approx(1.0, abs=1e-12)
        assert p1 == pytest.approx(0.0, abs=1e-12)

    def test_generic(self):
        p0, p1 = born_z(StokesVector(0.6, 0, 0.8))
        assert p0 == pytest.approx(0.9, abs=1e-12)
        assert p1 == pytest.approx(0.1, abs=1e-12)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-15)


class TestMix:
    def test_single_term(self):
        d = Decomposition(((1.0, PureState(StokesVector(0, 0, 1))),))
        np.testing.assert_allclose(mix(d).as_array(), [0, 0, 1], atol=1e-15)

    def test_equal_hv_mixture(self):
        d = Decomposition(
            (
                (0.5, PureState(StokesVector(0, 0, 1))),
                (0.5, PureState(StokesVector(0, 0, -1))),
            )
        )
        np.testing.assert_allclose(mix(d).as_array(), [0, 0, 0], atol=1e-15)

    def test_reconstructs_via_worst_case_decomposition(self):
        s = StokesVector(0.6, 0, 0.3)
        np.testing.assert_allclose(
            mix(worst_case_decomposition(s)).as_array(), s.as_array(), atol=1e-12
        )

    def test_rejects_bad_weights(self):
        with pytest.raises(ParameterError):
            Decomposition(
                (
                    (0.7, PureState(StokesVector(0, 0, 1))),
                    (0.7, PureState(StokesVector(0, 0, -1))),
                )
            )
        with pytest.raises(ParameterError):
            Decomposition(())

    def test_bloch_linearity_random(self, rng):
        # Bloch vector of the mixture equals the weighted average of terms
        for _ in range(300):
            k = rng.integers(2, 9)
            dirs = rng.normal(size=(k, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            w = rng.random(k)
            w /= w.sum()
            d = Decomposition(
                tuple(
                    (float(wi), PureState(StokesVector(*row)))
                    for wi, row in zip(w, dirs)
                )
            )
            got = mix(d).as_array()
            want = w @ dirs
            np.testing.assert_allclose(got, want, atol=1e-12)


class TestWorstCaseDecomposition:
    def test_reference_point(self):
        d = worst_case_decomposition(StokesVector(0.6, 0, 0.3))
        (w_up, up), (w_down, down) = d.terms
        assert w_up == pytest.approx(0.6875, abs=1e-12)
        assert w_down == pytest.approx(0.3125, abs=1e-12)
        assert up.bloch.s3 == pytest.approx(0.8, abs=1e-12)
        assert down.bloch.s3 == pytest.approx(-0.8, abs=1e-12)
        assert up.bloch.s1 == pytest.approx(0.6, abs=1e-12)

    def test_equator_boundary_degenerates(self):
        d = worst_case_decomposition(StokesVector(1, 0, 0))
        assert len(d.terms) == 2
        for w, psi in d.terms:
            assert w == pytest.approx(0.5, abs=1e-12)
            assert psi.bloch.s1 == pytest.approx(1.0, abs=1e-9)
            assert psi.bloch.s3 == pytest.approx(0.0, abs=1e-9)

    def test_maximally_mixed(self):
        d = worst_case_decomposition(StokesVector(0, 0, 0))
        s3s = sorted(psi.bloch.s3 for _, psi in d.terms)
        assert s3s == pytest.approx([-1.0, 1.0], abs=1e-12)
        assert [w for w, _ in d.terms] == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_reconstruction_random(self, rng):
        for s1, s2, s3 in random_ball(rng, 10_000):
            s = StokesVector(s1, s2, s3)
            np.testing.assert_allclose(
                mix(worst_case_decomposition(s)).as_array(), s.as_array(), atol=1e-12
            )


class TestPureState:
    def test_requires_unit_length(self):
        with pytest.raises(ParameterError):
            PureState(StokesVector(0.5, 0, 0))


def test_rotate_equatorial_preserves_coherence_and_s3(rng):
    for _ in range(200):
        s = StokesVector(*random_ball(rng, 1)[0])
        angle = rng.uniform(-10, 10)
        r = rotate_equatorial(s, angle)
        assert r.coherence == pytest.approx(s.coherence, abs=1e-12)
        assert r.s3 == s.s3


def test_clamping_within_tolerance():
    s = StokesVector(1.0 + 5e-13, 0.0, 0.0)
    assert s.s1 <= 1.0
    assert math.hypot(s.s1, s.s2) <= 1.0


def test_non_finite_component_rejected():
    with pytest.raises(ParameterError, match="s1 is not finite"):
        StokesVector(math.nan, 0, 0)


def test_negative_weight_rejected():
    # the weights sum to one, so only the sign check can reject them
    up, down = PureState(StokesVector(0, 0, 1)), PureState(StokesVector(0, 0, -1))
    with pytest.raises(ParameterError, match="negative weight -0.5"):
        Decomposition(((1.5, up), (-0.5, down)))
