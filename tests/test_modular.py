import cmath
import json
import math

import pytest

from mocktheta.characters import gram_quad
from mocktheta.core import ModularPoint
from mocktheta.mock import MockIndex
from mocktheta.modifier import phi_tilde
from mocktheta.modular import (
    IDENTITY,
    S,
    SL2Element,
    T,
    act,
    check_pair,
    check_residual,
    sample_points,
    verify_law,
)

QUAD = gram_quad([[0, 1], [1, 0]])  # (z|z) = 2 z1 z2


class TestSL2:
    def test_det_check(self):
        with pytest.raises(ValueError):
            SL2Element(1, 1, 1, 1)

    def test_identity_action(self):
        p = ModularPoint(0.2 + 1.1j, (0.3, 0.4), 0.5)
        q = act(IDENTITY, p, QUAD)
        assert q == p

    def test_s_fixed_point(self):
        p = ModularPoint(1j, (0.0, 0.0), 0.0)
        q = act(S, p, QUAD)
        assert abs(q.tau - 1j) < 1e-15 and q.z == (0, 0) and q.t == 0

    def test_t_translation(self):
        p = ModularPoint(0.2 + 1.1j, (0.3, 0.4), 0.5)
        q = act(T, p, QUAD)
        assert q.tau == p.tau + 1 and q.z == p.z and q.t == p.t

    def test_group_law(self, rng):
        gens = [S, T, SL2Element(1, 0, 1, 1)]
        p = ModularPoint(0.17 + 1.2j, (0.21, 0.05), 0.3)
        for _ in range(20):
            word = [gens[i] for i in rng.randint(0, 3, size=4)]
            A = word[0]
            for g in word[1:]:
                A = A @ g
            q1 = act(A, p, QUAD)
            q2 = p
            for g in reversed(word):
                q2 = act(g, q2, QUAD)
            assert abs(q1.tau - q2.tau) < 1e-13
            assert max(abs(a - b) for a, b in zip(q1.z, q2.z)) < 1e-13
            assert abs(q1.t - q2.t) < 1e-12


class TestVerifyLaw:
    """The engine every suite reports through."""

    def _checks(self, bias=0.0):
        checks = []
        for p in sample_points(5, n_z=2, seed=99):
            (z1, z2), tau = p.z, p.tau
            lhs = phi_tilde(MockIndex(1, 0), -1 / tau, z1 / tau, z2 / tau).value
            rhs = (
                tau
                * cmath.exp(2j * math.pi * z1 * z2 / tau)
                * phi_tilde(MockIndex(1, 0), tau, z1, z2).value
                + bias
            )
            checks.append(check_pair("S", lhs, rhs, tau))
        return checks

    def test_passing_law(self):
        rep = verify_law(1e-8, self._checks())
        assert rep["pass"] and rep["max_residual"] < 1e-10

    def test_injected_defect_detected(self):
        rep = verify_law(1e-8, self._checks(bias=1e-3))
        assert not rep["pass"]
        assert abs(rep["max_residual"] - 1e-3) < 1e-4

    def test_json_shape(self):
        rep = verify_law(1e-8, self._checks(), "a note")
        doc = json.loads(json.dumps(rep))
        assert set(doc) == {"tol", "max_residual", "pass", "n_checks", "checks", "notes"}
        assert doc["n_checks"] == 5 and doc["notes"] == "a note"
        assert set(doc["checks"][0]) == {"check", "residual", "lhs", "rhs", "point"}

    def test_mixed_metric(self):
        # absolute while both sides are O(1), relative above that
        assert abs(check_pair("a", 0.5 + 1e-3, 0.5)["residual"] - 1e-3) < 1e-15
        assert check_pair("r", 2e6 + 2.0, 2e6)["residual"] == 2.0 / (2e6 + 2.0)

    def test_missing_residual_skipped(self):
        rep = verify_law(1e-8, [check_residual("none", None), check_residual("ok", 1e-9)])
        assert rep["pass"] and rep["max_residual"] == 1e-9 and rep["n_checks"] == 2
        assert verify_law(1e-8, [])["max_residual"] == 0.0

    def test_sample_points_deterministic(self):
        a = sample_points(6, seed=42)
        b = sample_points(6, seed=42)
        assert [(p.tau, p.z) for p in a] == [(p.tau, p.z) for p in b]


class TestStream:
    """modular._stream(seed) draws what numpy.random.RandomState(seed) drew."""

    # the ranges the suites' _points, suite_oracles and sample_points draw from
    RANGES = ((-0.4, 0.4), (0.8, 2.0), (0.8, 1.4), (0.9, 1.6), (0.5, 0.9),
              (-0.45, 0.45), (-0.08, 0.08), (-0.05, 0.05), (-0.1, 0.1))

    @staticmethod
    def _seeds():
        import inspect

        from mocktheta.suites import SUITES, _suite_function

        registered = {
            p.default for sid in SUITES
            for name, p in inspect.signature(_suite_function(sid)).parameters.items()
            if name == "seed"
        }
        assert min(registered) == 11 and max(registered) == 63
        return sorted(registered | {0, 1, 2**32 - 1, 20240})

    def test_uniform_matches_randomstate_bit_for_bit(self):
        np = pytest.importorskip("numpy")
        from mocktheta.modular import _stream

        for seed in self._seeds():
            ours, theirs = _stream(seed), np.random.RandomState(seed)
            for i in range(700):  # past the first 624-word regeneration
                lo, hi = self.RANGES[i % len(self.RANGES)]
                a, b = ours.uniform(lo, hi), theirs.uniform(lo, hi)
                assert type(a) is float and a == b, (seed, i, a, b)

    def test_sample_points_match_randomstate(self):
        np = pytest.importorskip("numpy")

        rng = np.random.RandomState(20240)
        want = []
        while len(want) < 4:
            tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.8, 2.0))
            z = tuple(complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.1, 0.1))
                      for _ in range(3))
            if all(abs(w) >= 0.05 for w in z):
                want.append((tau, z))
        assert [(p.tau, p.z) for p in sample_points(4, n_z=3)] == want

    @pytest.mark.parametrize("seed", [-1, 2**32])
    def test_seed_outside_the_stream_range_raises_value_error(self, seed):
        from mocktheta.suites import run_suite

        with pytest.raises(ValueError, match="(?i)seed must be between 0 and 2"):
            sample_points(2, seed=seed)
        with pytest.raises(ValueError, match="(?i)seed must be between 0 and 2"):
            run_suite("theta-quasi", seed=seed)
