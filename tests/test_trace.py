import tracemalloc

import numpy as np
import pytest

from lqlearn import RunTrace
from lqlearn.trace import CSV_COLUMNS, block_rounds


def _sym(rng, shape):
    M = rng.standard_normal(shape)
    return (M + np.swapaxes(M, -1, -2)) / 2.0


def test_record_round_metrics_match_brute_force():
    for n_sensors in (1, 4, 32):
        _record_and_check(n_sensors)


def _record_and_check(N):
    d = 3
    B = block_rounds(N, d)
    # A full block, then a column read after round B + 1 measures a 1-round
    # block mid-run; B more rounds fill the next block, and the last round
    # is still buffered when the checks below read the columns.
    rounds, read_at = 2 * B + 2, B + 1
    rng = np.random.default_rng(41)
    G_star = _sym(rng, (d, d))
    trace = RunTrace(n_sensors=N, G_star=G_star)
    stacks = _sym(rng, (rounds, N, d, d))
    stacks[rounds // 2] *= 4.0  # the largest norm falls in a middle round
    omegas = rng.standard_normal((rounds, N))
    for r in range(rounds):
        trace.record_round(0.1 * (r + 1), list(omegas[r]), stacks[r])
        if r + 1 == read_at:
            assert trace.n_rounds == len(trace.norm1) == read_at
            # The stored column itself, so the write survives later rounds.
            trace.omegas[0] = [7.0] * N
    assert trace.n_rounds == rounds

    tol = 1e-12
    max_fro = 0.0
    for r, G in enumerate(stacks):
        mats = list(G)
        if N >= 2:
            diameter = max(
                np.linalg.norm(mats[i] - mats[j])
                for i in range(N)
                for j in range(i + 1, N)
            )
            assert trace.diameters[r] == pytest.approx(diameter, abs=tol)
        else:
            assert trace.diameters[r] is None
        for s, Gs in enumerate(mats):
            assert trace.norm1[r][s] == pytest.approx(np.abs(Gs).sum(), abs=tol)
            assert trace.fro_err[r][s] == pytest.approx(
                np.linalg.norm(Gs - G_star), abs=tol
            )
            max_fro = max(max_fro, np.linalg.norm(Gs))
        mean = sum(mats) / N
        assert np.allclose(trace.mean_history[r], mean, rtol=0.0, atol=tol)
        assert trace.mean_err[r] == pytest.approx(
            np.linalg.norm(mean - G_star), abs=tol
        )
        assert trace.alphas[r] == 0.1 * (r + 1)
        if r > 0:
            assert trace.omegas[r] == omegas[r].tolist()
    assert trace.max_fro_norm == pytest.approx(max_fro, abs=tol)
    assert trace.omegas[0] == [7.0] * N
    assert all(type(v) is float for v in trace.omegas[-1] + trace.norm1[-1])
    assert type(trace.mean_err[-1]) is float


def test_block_metrics_equal_one_round_arithmetic_bit_for_bit():
    # Traces and CSVs stay byte-identical whatever the block size: each
    # metric below is computed for one round alone, the way a 1-round block
    # would, and must match exactly.
    rng = np.random.default_rng(8)
    for N in (1, 4, 32):
        G_star = _sym(rng, (3, 3))
        stacks = _sym(rng, (2 * block_rounds(N, 3) + 2, N, 3, 3))
        trace = RunTrace(n_sensors=N, G_star=G_star)
        for G in stacks:
            trace.record_round(0.5, [0.0] * N, G)
        for r, G in enumerate(stacks):
            assert trace.norm1[r] == np.abs(G).sum(axis=(1, 2)).tolist()
            assert trace.fro_err[r] == np.linalg.norm(G - G_star, axis=(1, 2)).tolist()
            if N >= 2:
                pairs = np.linalg.norm(G[:, None] - G[None], axis=(2, 3))
                assert trace.diameters[r] == float(pairs.max())
            mean = G.sum(axis=0) / N
            assert np.array_equal(trace.mean_history[r], mean)
            assert trace.mean_err[r] == float(np.linalg.norm(mean - G_star))
        assert trace.max_fro_norm == max(
            float(np.linalg.norm(G, axis=(1, 2)).max()) for G in stacks
        )


def test_diameter_of_many_sensors_is_chunked_and_bit_exact():
    # Above 60 sensors at d = 3 one round's N**2 pairwise differences exceed
    # the block's float budget (3.1 MB at N = 200); the pass takes them over
    # chunks of sensor rows and must still give the one-pass bits.
    N, rounds = 200, 3
    assert block_rounds(N, 3) == 1
    rng = np.random.default_rng(17)
    stacks = _sym(rng, (rounds, N, 3, 3))
    trace = RunTrace(n_sensors=N)
    trace.record_round(0.5, [0.0] * N, stacks[0])  # allocates the buffers
    tracemalloc.start()
    try:
        for G in stacks[1:]:
            trace.record_round(0.5, [0.0] * N, G)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    diff = stacks[:, :, None] - stacks[:, None]
    np.square(diff, out=diff)
    one_pass = np.sqrt(diff.sum(axis=(3, 4)).max(axis=(1, 2)))
    assert trace.diameters == one_pass.tolist()


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


def _reference_csv(trace) -> str:
    """The CSV formatted cell by cell: an integer as str, a float as its
    shortest round-trip repr, a missing value as the empty string."""

    def cell(value):
        if value is None:
            return ""
        if isinstance(value, int):
            return str(value)
        return repr(float(value))

    lines = [",".join(CSV_COLUMNS)]
    for r in range(trace.n_rounds):
        for s in range(trace.n_sensors):
            err = trace.fro_err[r][s] if trace.fro_err is not None else None
            row = (r + 1, s, trace.alphas[r], trace.omegas[r][s],
                   trace.norm1[r][s], err, trace.diameters[r])
            lines.append(",".join(cell(v) for v in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n_sensors", [1, 4])
@pytest.mark.parametrize("with_oracle", [True, False])
def test_write_csv_matches_cell_by_cell_reference(tmp_path, n_sensors,
                                                  with_oracle):
    rng = np.random.default_rng(5)
    G_star = _sym(rng, (3, 3)) if with_oracle else None
    trace = RunTrace(n_sensors=n_sensors, G_star=G_star)
    # Past one block on ring:4, with values of very different magnitudes.
    for r in range(block_rounds(4, 3) + 3):
        scale = 10.0 ** rng.integers(-8, 8)
        trace.record_round(1.0 / (r + 2), list(rng.standard_normal(n_sensors)),
                           scale * _sym(rng, (n_sensors, 3, 3)))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    assert path.read_bytes() == _reference_csv(trace).encode("utf-8")
