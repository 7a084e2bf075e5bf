import tracemalloc

import numpy as np
import pytest

from lqlearn import (
    RngStream,
    RunTrace,
    Schedule,
    allocate_gains,
    build_graph,
    consensus_operator,
    distributed_round,
    draw_noise,
    initial_bank,
    realize,
    run_distributed,
)
from lqlearn.distributed import _NS_SENSOR_NOISE
from lqlearn.trace import (
    _BLOCK_FLOATS,
    _GROUP_FLOATS,
    CSV_COLUMNS,
    block_rounds,
    group_seeds,
)


def _sym(rng, shape):
    M = rng.standard_normal(shape)
    return (M + np.swapaxes(M, -1, -2)) / 2.0


def _record_in_blocks(trace, alphas, omegas, stacks, sizes):
    """Record the rounds as consecutive blocks of the given sizes."""
    assert sum(sizes) == len(stacks)
    start = 0
    for b in sizes:
        end = start + b
        trace.record_round(alphas[start:end], omegas[start:end], stacks[start:end])
        start = end


def test_record_round_metrics_match_brute_force():
    for n_sensors in (1, 4, 32):
        _record_and_check(n_sensors)


def _record_and_check(N):
    d = 3
    B = block_rounds(N, d)
    # A full block, a 1-round block, another full block and a last 1-round
    # block: every metric must land at its own round whatever the split.
    sizes = [B, 1, B, 1]
    rounds = sum(sizes)
    rng = np.random.default_rng(41)
    G_star = _sym(rng, (d, d))
    trace = RunTrace(n_sensors=N, G_star=G_star)
    stacks = _sym(rng, (rounds, N, d, d))
    stacks[rounds // 2] *= 4.0  # the largest norm falls in a middle round
    omegas = rng.standard_normal((rounds, N))
    alphas = 0.1 * np.arange(1, rounds + 1)
    _record_in_blocks(trace, alphas, omegas, stacks, sizes)
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
        assert trace.alphas[r] == alphas[r]
        assert trace.omegas[r].tobytes() == omegas[r].tobytes()
    assert trace.max_fro_norm == pytest.approx(max_fro, abs=tol)
    assert type(trace.alphas[-1]) is float
    assert type(trace.mean_err[-1]) is float


def test_block_metrics_equal_one_round_arithmetic_bit_for_bit():
    # Traces and CSVs stay byte-identical whatever the block size: each
    # metric below is computed for one round alone, the way a 1-round block
    # would, and must match exactly.
    rng = np.random.default_rng(8)
    for N in (1, 4, 32):
        B = block_rounds(N, 3)
        G_star = _sym(rng, (3, 3))
        stacks = _sym(rng, (2 * B + 2, N, 3, 3))
        trace = RunTrace(n_sensors=N, G_star=G_star)
        _record_in_blocks(trace, np.full(len(stacks), 0.5),
                          np.zeros((len(stacks), N)), stacks, [B, B, 2])
        for r, G in enumerate(stacks):
            assert trace.norm1[r].tolist() == np.abs(G).sum(axis=(1, 2)).tolist()
            assert (trace.fro_err[r].tolist()
                    == np.linalg.norm(G - G_star, axis=(1, 2)).tolist())
            if N >= 2:
                pairs = np.linalg.norm(G[:, None] - G[None], axis=(2, 3))
                assert trace.diameters[r] == float(pairs.max())
            mean = G.sum(axis=0) / N
            assert np.array_equal(trace.mean_history[r], mean)
            assert trace.mean_err[r] == float(np.linalg.norm(mean - G_star))
        assert trace.max_fro_norm == max(
            float(np.linalg.norm(G, axis=(1, 2)).max()) for G in stacks
        )


def _all_pairs_diameters(stacks):
    """The consensus diameters of a (B, N, d, d) block from one pass over
    the (B, N, N, d, d) stack of all ordered pairwise differences."""
    diff = stacks[:, :, None] - stacks[:, None]
    np.square(diff, out=diff)
    return np.sqrt(diff.sum(axis=(3, 4)).max(axis=(1, 2))).tolist()


@pytest.mark.parametrize("N", [2, 3, 4, 32, 61, 200])
def test_diameter_over_offsets_equals_all_pairs_one_pass(N):
    # The pass takes each unordered pair once, one sensor offset at a time,
    # and must give the bits of the all-pairs pass for any block size. The
    # estimates span 16 decades, so the squared distances round everywhere.
    B = block_rounds(N, 3)
    rng = np.random.default_rng(N)
    for b in (1, B, B + 1):
        scales = 10.0 ** rng.integers(-8, 8, size=(b, N, 1, 1))
        stacks = scales * _sym(rng, (b, N, 3, 3))
        trace = RunTrace(n_sensors=N)
        trace.record_round(np.full(b, 0.5), np.zeros((b, N)), stacks)
        assert trace.diameters == _all_pairs_diameters(stacks)


def test_metrics_pass_of_many_sensors_is_linear_in_memory():
    # At d = 3 a block of 200 sensors is 4 rounds, 7200 floats (58 KB). The
    # pass holds a few temporaries of that size and the block's trace
    # entries (0.3 MB in all on numpy 2.4), where the (B, N, N, d, d) pair
    # differences alone would take 11.5 MB.
    N, d = 200, 3
    B = block_rounds(N, d)
    assert B == 4
    rng = np.random.default_rng(17)
    stacks = _sym(rng, (2 * B, N, d, d))
    alphas, omegas = np.full(B, 0.5), np.zeros((B, N))
    trace = RunTrace(n_sensors=N, G_star=_sym(rng, (d, d)))
    trace.record_round(alphas, omegas, stacks[:B])  # first-call set-up
    tracemalloc.start()
    try:
        trace.record_round(alphas, omegas, stacks[B:])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**19
    assert trace.diameters[B:] == _all_pairs_diameters(stacks[B:])


def test_run_keeps_its_trace_columns_as_float_arrays(bench_sys, bench_noise,
                                                    bench_oracle):
    # A ring:32 run of 250 rounds records 27,000 floats: per round one omega,
    # norm1 and fro_err per sensor, the 3 x 3 averaged iterate and three
    # scalars (group_seeds's count). Held as arrays they take 8 bytes each,
    # 0.22 MB; warm, the run kept 0.24 MB under tracemalloc (numpy 2.4),
    # where lists of Python floats kept 0.89 MB. The bound is 1.5 x the
    # floats' 8 bytes, 0.32 MB, a third above the measurement.
    g, rounds, d = build_graph("ring:32"), 250, 3
    N = g.n_sensors
    gains = allocate_gains(g, (2, 1), "uniform")

    def run():
        return run_distributed(bench_sys, bench_noise, g, gains, Schedule(),
                               rounds, RngStream(0), oracle=bench_oracle,
                               shared_noise=False, init="spread")

    run()  # first-call set-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1.5 * 8 * rounds * (3 * N + d * d + 3)
    for column in (trace.omegas, trace.norm1, trace.fro_err):
        assert type(column) is np.ndarray
        assert (column.dtype, column.shape) == (np.float64, (rounds, N))
    assert trace.mean_history.shape == (rounds, d, d)


def test_single_sensor_round_has_no_diameter():
    G = np.eye(3)[None]
    trace = RunTrace(n_sensors=1)
    trace.record_round(np.array([0.5]), np.array([[1.0]]), G[None])
    assert trace.diameters == [None]
    assert np.array_equal(trace.final_mean(), np.eye(3))


def test_empty_trace_has_no_final_mean():
    with pytest.raises(ValueError, match="empty trace"):
        RunTrace(n_sensors=1).final_mean()


def test_record_round_rejects_wrong_sensor_count():
    trace = RunTrace(n_sensors=2)
    alphas = np.full(3, 0.5)
    for omegas, G in [
        (np.ones((3, 3)), np.zeros((3, 2, 3, 3))),  # omegas for 3 sensors
        (np.ones((3, 2)), np.zeros((3, 3, 3, 3))),  # estimates for 3 sensors
    ]:
        with pytest.raises(ValueError, match="one omega"):
            trace.record_round(alphas, omegas, G)
    assert trace.n_rounds == 0


def test_record_round_rejects_wrong_round_count():
    trace = RunTrace(n_sensors=2)
    for alphas, omegas, G in [
        (np.full(4, 0.5), np.ones((3, 2)), np.zeros((3, 2, 3, 3))),  # alphas
        (np.full(3, 0.5), np.ones((2, 2)), np.zeros((3, 2, 3, 3))),  # omegas
        (np.full(3, 0.5), np.ones((3, 2)), np.zeros((2, 2, 3, 3))),  # estimates
    ]:
        with pytest.raises(ValueError, match="one alpha per round"):
            trace.record_round(alphas, omegas, G)
    assert trace.n_rounds == 0


@pytest.mark.parametrize(
    ("graph", "shared_noise", "rounds"),
    [("ring:4", True, 2 * block_rounds(4, 3) + 3),
     ("ring:32", False, 2 * block_rounds(32, 3) + 2)],
)
def test_run_trace_equals_one_round_records(bench_sys, bench_noise,
                                            bench_oracle, graph, shared_noise,
                                            rounds):
    # run_distributed records whole blocks; a hand loop of distributed_round
    # on the same noise tape, recording one round at a time, must give the
    # same trace bit for bit across the block boundaries.
    g = build_graph(graph)
    gains = allocate_gains(g, (2, 1), "uniform")
    sched = Schedule()
    init = "identity" if shared_noise else "spread"
    trace = run_distributed(bench_sys, bench_noise, g, gains, sched, rounds,
                            RngStream(3), oracle=bench_oracle,
                            shared_noise=shared_noise, init=init)

    N, rng = g.n_sensors, RngStream(3)
    bank = initial_bank(bench_sys, N, rng, init=init)
    streams = [rng] if shared_noise else [
        rng.substream(_NS_SENSOR_NOISE, i) for i in range(N)
    ]
    tape = np.stack([draw_noise(r, bench_noise, rounds) for r in streams], axis=1)
    cons = consensus_operator(g)
    ref = RunTrace(N, G_star=bench_oracle.G_star.mat)
    for k, omegas in enumerate(tape):
        alpha = sched.alpha(k)
        Uk = realize(bench_sys, omegas[0] if shared_noise else omegas)
        bank = distributed_round(bank, k, bench_sys, cons, gains, Uk, sched)
        ref.record_round(np.array([alpha]),
                         np.broadcast_to(omegas, (1, N)), bank[None])

    assert trace.n_rounds == rounds
    assert list(trace.csv_rows()) == list(ref.csv_rows())
    assert all(np.array_equal(a, b)
               for a, b in zip(trace.mean_history, ref.mean_history, strict=True))
    assert trace.max_fro_norm == ref.max_fro_norm


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


def _special_rounds(n_sensors):
    """(omegas, estimates) of rounds whose cells break a CSV dedupe keyed on
    value, not bits: sensors sharing one value or holding it apart (0.3 at
    sensors 0, 2 and 3 of [0.3, 0.7, 0.3, 0.3]), 0.0 beside -0.0 within a
    round and across rounds, and NaN beside +-inf. Each estimate is its
    omega times the all-ones matrix, so norm1 and fro_err carry the
    pattern too."""
    vals = [np.nan, np.inf, -np.inf, 1.0]
    rows = [[0.3] * 4, [0.3, 0.7, 0.3, 0.3],
            [0.0, -0.0, 0.0, -0.0], [-0.0, 0.0, -0.0, -0.0],
            *(np.roll(vals, -r) for r in range(4))]
    omegas = np.array(rows)[:, :n_sensors]
    return omegas, omegas[..., None, None] * np.ones((3, 3))


@pytest.mark.parametrize("n_sensors", [1, 4])
@pytest.mark.parametrize("with_oracle", [True, False])
def test_write_csv_matches_cell_by_cell_reference(tmp_path, n_sensors,
                                                  with_oracle):
    rng = np.random.default_rng(5)
    G_star = _sym(rng, (3, 3)) if with_oracle else None
    trace = RunTrace(n_sensors=n_sensors, G_star=G_star)
    # Past one block on ring:4, with values of very different magnitudes.
    B = block_rounds(4, 3)
    rounds = B + 3
    scales = 10.0 ** rng.integers(-8, 8, size=rounds)
    stacks = scales[:, None, None, None] * _sym(rng, (rounds, n_sensors, 3, 3))
    _record_in_blocks(trace, 1.0 / np.arange(2, rounds + 2),
                      rng.standard_normal((rounds, n_sensors)), stacks, [B, 3])
    omegas, G = _special_rounds(n_sensors)
    # inf - inf in the metrics of the nonfinite rounds gives NaN.
    with np.errstate(invalid="ignore"):
        trace.record_round(np.full(len(omegas), 0.125), omegas, G)
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    assert path.read_bytes() == _reference_csv(trace).encode("utf-8")


@pytest.mark.parametrize(
    "n_sensors, rounds, expected",
    [(1, 200, 87), (4, 200, 54), (32, 200, 12), (4, 20, 546), (200, 10, 42),
     (1, 5000, 3)],
)
def test_seed_groups_and_blocks_keep_their_budgets(n_sensors, rounds, expected):
    # A group's traces stay within their budget, and a block's
    # (B, S*N, d, d) estimates within the block budget, unless a single
    # seed or round exceeds it.
    d = 3
    S = group_seeds([n_sensors], d, rounds)
    assert S == expected
    if S > 1:
        assert S * rounds * (3 * n_sensors + d * d + 3) <= _GROUP_FLOATS
    B = block_rounds(S * n_sensors, d)
    assert B <= block_rounds(n_sensors, d)
    if B > 1:
        assert S * B * n_sensors * d * d <= _BLOCK_FLOATS


def test_seed_group_counts_every_kinds_traces():
    # `run --mode both` keeps a centralized and a ring:4 trace per seed, so
    # a group holds fewer seeds than for either kind alone.
    d, rounds = 3, 200
    S = group_seeds([1, 4], d, rounds)
    assert S == 33
    per_seed = rounds * ((3 * 1 + d * d + 3) + (3 * 4 + d * d + 3))
    assert S * per_seed <= _GROUP_FLOATS < (S + 1) * per_seed
