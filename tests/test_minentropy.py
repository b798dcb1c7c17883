import math

import numpy as np
import pytest

from oracles import minentropy_decomposition, minimize_over_decompositions, mix
from qrbg.errors import ParameterError
from qrbg.minentropy import (
    EntropyRate,
    closed_form_minentropy,
    lower_confidence_rate,
    rate_from_coherence,
)
from qrbg.states import (
    Decomposition,
    PureState,
    StokesVector,
    worst_case_decomposition,
)


def random_ball(rng, count, radius=1.0):
    v = rng.normal(size=(count, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * (radius * rng.random(count) ** (1 / 3))[:, None]


def labelled_minentropy(d):
    """-log2 of the mean guessing probability of an adversary who knows
    which term of ``d`` each event came from."""
    return -math.log2(sum(w * (1.0 + abs(psi.bloch.s3)) / 2.0 for w, psi in d.terms))


def closed_form(c):
    """Test-side evaluation of the coherence formula."""
    return -math.log2((1.0 + math.sqrt(1.0 - c * c)) / 2.0)


def pure_rate(s3):
    """Test-side evaluation of a pure state's rate from its vertical component."""
    return -math.log2((1.0 + abs(s3)) / 2.0)


class TestPureRate:
    def test_deterministic_state(self):
        assert float(closed_form_minentropy(StokesVector(0, 0, 1))) == pure_rate(1) == 0.0

    def test_balanced_state(self):
        assert float(closed_form_minentropy(StokesVector(1, 0, 0))) == pure_rate(0) == 1.0

    def test_biased_state(self):
        rate = closed_form_minentropy(StokesVector(0.6, 0, 0.8))
        assert float(rate) == pytest.approx(pure_rate(0.8), abs=1e-12)
        assert float(rate) == pytest.approx(-math.log2(0.9), abs=1e-12)


class TestDecompositionRate:
    def test_hv_mixture_is_fully_known(self):
        d = Decomposition(
            (
                (0.5, PureState(StokesVector(0, 0, 1))),
                (0.5, PureState(StokesVector(0, 0, -1))),
            )
        )
        assert float(minentropy_decomposition(d)) == 0.0

    def test_single_balanced_term(self):
        d = Decomposition(((1.0, PureState(StokesVector(1, 0, 0))),))
        assert float(minentropy_decomposition(d)) == 1.0

    def test_worst_case_terms_share_one_rate(self):
        d = worst_case_decomposition(StokesVector(0.6, 0, 0.3))
        assert float(minentropy_decomposition(d)) == pytest.approx(
            -math.log2(0.9), abs=1e-12
        )

    def test_mean_exceeds_the_labelled_adversarys_min_entropy(self):
        # 1/2 |0> + 1/2 |+>: her guess is right with probability 3/4
        d = Decomposition(
            (
                (0.5, PureState(StokesVector(0, 0, 1))),
                (0.5, PureState(StokesVector(1, 0, 0))),
            )
        )
        assert float(minentropy_decomposition(d)) == 0.5
        assert labelled_minentropy(d) == pytest.approx(-math.log2(0.75), abs=1e-15)
        assert labelled_minentropy(d) == pytest.approx(0.4150, abs=5e-5)
        assert float(closed_form_minentropy(mix(d))) == pytest.approx(0.1000, abs=5e-5)

    def test_mean_is_the_labelled_adversarys_when_terms_share_p_max(self):
        d = worst_case_decomposition(StokesVector(0.9, 0.3, 0.1))
        assert float(minentropy_decomposition(d)) == pytest.approx(labelled_minentropy(d), abs=1e-12)
        assert labelled_minentropy(d) == pytest.approx(0.603591, abs=5e-7)


class TestClosedForm:
    def test_no_coherence(self):
        assert float(closed_form_minentropy(StokesVector(0, 0, 0.7))) == 0.0

    def test_full_coherence(self):
        assert float(rate_from_coherence(1.0)) == 1.0

    def test_intermediate_coherence(self):
        state = StokesVector(0.6, 0, 0)
        assert float(closed_form_minentropy(state)) == pytest.approx(
            -math.log2(0.9), abs=1e-12
        )

    def test_demo_operating_points(self):
        single = StokesVector(0.9996, 0, 0)
        assert float(closed_form_minentropy(single)) == pytest.approx(0.9598, abs=1e-4)
        pairs = StokesVector(0.844, 0, 0)
        assert float(closed_form_minentropy(pairs)) == pytest.approx(0.3805, abs=1e-4)

    def test_rejects_bad_coherence(self):
        with pytest.raises(ParameterError):
            rate_from_coherence(1.0 + 1e-6)
        with pytest.raises(ParameterError):
            rate_from_coherence(-0.1)

    def test_monotone_in_coherence(self):
        grid = np.linspace(0.0, 1.0, 200)
        vals = [float(rate_from_coherence(c)) for c in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_phase_invariance(self, rng):
        from qrbg.states import rotate_equatorial

        for s1, s2, s3 in random_ball(rng, 10_000):
            s = StokesVector(s1, s2, s3)
            angle = rng.uniform(0, 2 * math.pi)
            a = closed_form(s.coherence)
            b = closed_form(rotate_equatorial(s, angle).coherence)
            assert abs(a - b) < 1e-12

    def test_lemma1_pure_states(self, rng):
        # pure-state rate equals the closed form on the sphere surface
        v = rng.normal(size=(10_000, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        for row in v:
            psi = PureState(StokesVector(*row))
            a = pure_rate(psi.bloch.s3)
            b = float(closed_form_minentropy(psi.bloch))
            assert abs(a - b) < 1e-12

    def test_convexity(self, rng):
        a = random_ball(rng, 10_000)
        b = random_ball(rng, 10_000)
        ca = np.hypot(a[:, 0], a[:, 1])
        cb = np.hypot(b[:, 0], b[:, 1])
        fa = -np.log2((1 + np.sqrt(1 - ca**2)) / 2)
        fb = -np.log2((1 + np.sqrt(1 - cb**2)) / 2)
        for lam in np.arange(0.1, 0.95, 0.1):
            m = lam * a + (1 - lam) * b
            cm = np.hypot(m[:, 0], m[:, 1])
            fm = -np.log2((1 + np.sqrt(1 - cm**2)) / 2)
            assert (fm <= lam * fa + (1 - lam) * fb + 1e-12).all()


def chord_rates(point, dirs):
    """Independent two-term decomposition rates along the given chords."""
    r2 = point @ point
    ru = dirs @ point
    half = np.sqrt(ru * ru + 1.0 - r2)
    t_up, t_down = -ru + half, -ru - half
    z_up = np.clip(point[2] + t_up * dirs[:, 2], -1, 1)
    z_down = np.clip(point[2] + t_down * dirs[:, 2], -1, 1)
    w = -t_down / (t_up - t_down)
    return w * -np.log2((1 + np.abs(z_up)) / 2) + (1 - w) * -np.log2(
        (1 + np.abs(z_down)) / 2
    )


class TestTheorem:
    def test_lower_bound_over_random_decompositions(self, rng):
        points = random_ball(rng, 1000, radius=0.999)
        for point in points:
            f = closed_form(math.hypot(point[0], point[1]))
            dirs = rng.normal(size=(1000, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            rates = chord_rates(point, dirs)
            assert rates.min() >= f - 1e-9
            # four-term mixtures: convex combinations of two chords
            lam = rng.random(500)
            mixed = lam * rates[:500] + (1 - lam) * rates[500:]
            assert mixed.min() >= f - 1e-9

    def test_attainment_by_worst_case_decomposition(self, rng):
        for row in random_ball(rng, 1000):
            state = StokesVector(*row)
            attained = float(minentropy_decomposition(worst_case_decomposition(state)))
            assert abs(attained - float(closed_form_minentropy(state))) < 1e-12

    def test_spot_check_with_production_objects(self, rng):
        # a random k-term decomposition through the production types
        for _ in range(50):
            k = rng.integers(2, 6)
            dirs = rng.normal(size=(k, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            w = rng.random(k)
            w /= w.sum()
            d = Decomposition(
                tuple((float(wi), PureState(StokesVector(*r))) for wi, r in zip(w, dirs))
            )
            state = mix(d)
            assert float(minentropy_decomposition(d)) >= float(
                closed_form_minentropy(state)
            ) - 1e-9


class TestBruteForceMinimizer:
    def test_matches_closed_form_at_reference_point(self):
        state = StokesVector(0.6, 0, 0.3)
        got = float(minimize_over_decompositions(state, 10_000))
        assert got == pytest.approx(-math.log2(0.9), abs=1e-4)

    def test_maximally_mixed(self):
        state = StokesVector(0, 0, 0)
        assert float(minimize_over_decompositions(state, 100)) == pytest.approx(0.0, abs=1e-12)

    def test_equatorial_point(self):
        state = StokesVector(0.5, 0.5, 0)
        want = closed_form(math.sqrt(0.5))
        got = float(minimize_over_decompositions(state, 10_000))
        assert got == pytest.approx(want, abs=1e-4)

    def test_never_below_closed_form(self, rng):
        for row in random_ball(rng, 200, radius=0.999):
            state = StokesVector(*row)
            diff = float(minimize_over_decompositions(state, 2000)) - float(
                closed_form_minentropy(state)
            )
            assert -1e-9 <= diff <= 1e-3

    def test_surface_state_returns_pure_rate(self):
        state = StokesVector(0.6, 0, 0.8)
        got = float(minimize_over_decompositions(state, 64))
        assert got == pytest.approx(-math.log2(0.9), abs=1e-12)

    def test_rejects_tiny_grids(self):
        with pytest.raises(ParameterError):
            minimize_over_decompositions(StokesVector(0, 0, 0), 7)

    def test_deterministic(self):
        state = StokesVector(0.3, 0.2, 0.1)
        a = float(minimize_over_decompositions(state, 5000))
        b = float(minimize_over_decompositions(state, 5000))
        assert a == b


class TestLowerConfidenceRate:
    def test_limit_of_large_n(self):
        # the closed form approaches 1 only like sqrt(delta), so driving
        # the deflation below 1e-3 takes an astronomically large sample
        rate = lower_confidence_rate(StokesVector(1, 0, 0), 10**18, 0.01)
        assert float(rate) == pytest.approx(1.0, abs=1e-3)

    def test_small_sample_wipes_out_weak_coherence(self):
        rate = lower_confidence_rate(StokesVector(0.1, 0, 0), 100, 0.01)
        assert float(rate) == 0.0

    def test_matches_deflated_formula(self):
        s = StokesVector(0.9996, 0, 0)
        delta = math.sqrt(2 * math.log(400.0) / 1e6)
        want = closed_form(0.9996 - delta)
        assert float(lower_confidence_rate(s, 10**6, 0.01)) == pytest.approx(
            want, abs=1e-12
        )

    def test_monotone_in_sample_size(self):
        s = StokesVector(0.8, 0, 0)
        rates = [
            float(lower_confidence_rate(s, n, 0.01))
            for n in (100, 1000, 10_000, 10**6, 10**9)
        ]
        assert all(b >= a for a, b in zip(rates, rates[1:]))
        assert rates[-1] == pytest.approx(closed_form(0.8), abs=1e-3)

    def test_alpha_validation(self):
        with pytest.raises(ParameterError):
            lower_confidence_rate(StokesVector(0.5, 0, 0), 100, 0.0)
        with pytest.raises(ParameterError):
            lower_confidence_rate(StokesVector(0.5, 0, 0), 100, 1.0)
        with pytest.raises(ParameterError):
            lower_confidence_rate(StokesVector(0.5, 0, 0), 0, 0.5)


def test_entropy_rate_bounds():
    with pytest.raises(ParameterError):
        EntropyRate(1.5)
    with pytest.raises(ParameterError):
        EntropyRate(-0.5)
    assert float(EntropyRate(1.0 + 1e-12)) == 1.0
    assert float(EntropyRate(-1e-12)) == 0.0
