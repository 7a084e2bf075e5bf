import numpy as np
import pytest

from lqlearn import RunTrace


def _sym(rng, shape):
    M = rng.standard_normal(shape)
    return (M + np.swapaxes(M, -1, -2)) / 2.0


def test_record_round_metrics_match_brute_force():
    rng = np.random.default_rng(41)
    G_star = _sym(rng, (3, 3))
    trace = RunTrace(n_sensors=5, G_star=G_star)
    stacks = [_sym(rng, (5, 3, 3)) for _ in range(3)]
    stacks[1] *= 4.0  # the largest norm falls in a middle round
    for r, G in enumerate(stacks):
        trace.record_round(0.1 * (r + 1), [0.5 * s for s in range(5)], G)

    tol = 1e-12
    max_fro = 0.0
    for r, G in enumerate(stacks):
        mats = list(G)
        diameter = max(
            np.linalg.norm(mats[i] - mats[j])
            for i in range(5)
            for j in range(i + 1, 5)
        )
        assert trace.diameters[r] == pytest.approx(diameter, abs=tol)
        for s, Gs in enumerate(mats):
            assert trace.norm1[r][s] == pytest.approx(np.abs(Gs).sum(), abs=tol)
            assert trace.fro_err[r][s] == pytest.approx(
                np.linalg.norm(Gs - G_star), abs=tol
            )
            max_fro = max(max_fro, np.linalg.norm(Gs))
        mean = sum(mats) / 5.0
        assert trace.mean_err[r] == pytest.approx(
            np.linalg.norm(mean - G_star), abs=tol
        )
    assert trace.max_fro_norm == pytest.approx(max_fro, abs=tol)
    assert trace.omegas[0] == [0.0, 0.5, 1.0, 1.5, 2.0]


def test_single_sensor_round_has_no_diameter():
    G = np.eye(3)[None]
    trace = RunTrace(n_sensors=1)
    trace.record_round(0.5, [1.0], G)
    assert trace.diameters == [None]
    assert np.array_equal(trace.final_mean(), np.eye(3))


def test_record_round_rejects_wrong_sensor_count():
    trace = RunTrace(n_sensors=2)
    with pytest.raises(ValueError, match="one omega"):
        trace.record_round(0.5, [1.0, 1.0], np.zeros((3, 3, 3)))
