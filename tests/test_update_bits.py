"""The sensor update computes with fewer numpy calls than the textbook
expressions, but the same float operations in the same order. Each reference
below is the plain expression (np.linalg.pinv, new arrays instead of in-place
updates, np.stack over the sensors), and the update must equal it bit for
bit, so traces and CSVs never move."""

import tracemalloc
import warnings

import numpy as np
import pytest

from lqlearn import (
    NoiseModel,
    RankDeficientWarning,
    RngStream,
    Schedule,
    SystemModel,
    allocate_gains,
    build_graph,
    consensus_operator,
    distributed_round,
    initial_bank,
    pi_map,
    realize,
    symmetrize,
    y_operator,
)
from lqlearn.distributed import (DIVERGENCE_CAP, _NS_JITTER, _mix, _mixing,
                                 _round)
from lqlearn.sampling import draw_noise_rows
from lqlearn.lqcore import PINV_TOL, _pinv_uu


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _y_reference(G, Uk, Q, R):
    n = Q.shape[0]
    pinv = np.linalg.pinv(G[n:, n:], rcond=PINV_TOL)
    P = G[:n, :n] - G[:n, n:] @ pinv @ G[n:, :n]
    P = (P + P.swapaxes(-1, -2)) / 2.0
    M = Uk.swapaxes(-1, -2) @ P @ Uk
    M[..., :n, :n] += Q
    M[..., n:, n:] += R
    M = M - G
    return (M + M.swapaxes(-1, -2)) / 2.0


def _mix_reference(G, cons):
    """The dense mixing step: L weighs all N x N pairwise differences."""
    diff = G[..., None, :, :, :] - G[..., :, None, :, :]
    return G - cons.w * np.einsum("ij,...ijab->...iab", cons.L, diff)


def _round_reference(G, k, sys, cons, gains, Uk, sched):
    N = G.shape[0]
    Uk = np.broadcast_to(Uk, (N, sys.n, sys.n + sys.m))
    alpha = sched.alpha(k)
    Y = np.stack([_y_reference(g, u, sys.Q, sys.R) for g, u in zip(G, Uk)])
    G = _mix_reference(G, cons)
    G = G + alpha * (gains[:, :, None] * Y)
    return (G + G.swapaxes(-1, -2)) / 2.0


def _uu_blocks(m):
    """(block, rank-deficient at the cutoff) pairs: SPD, low-rank, a
    singular value just under the cutoff, and all zeros."""
    rng = np.random.default_rng(100 + m)
    for _ in range(40):
        X = rng.standard_normal((m, m))
        yield X @ X.T + 0.1 * np.eye(m), False
    for rank in range(1, m):
        for _ in range(20):
            X = rng.standard_normal((m, rank))
            yield X @ X.T, True
    if m >= 2:
        Qm, _ = np.linalg.qr(rng.standard_normal((m, m)))
        for tiny, deficient in ((1e-13, True), (1e-11, False)):
            s = np.ones(m)
            s[-1] = tiny
            yield (Qm * s) @ Qm.T, deficient
    yield np.zeros((m, m)), True


@pytest.mark.parametrize("m", [1, 2, 3])
def test_pinv_uu_equals_numpy_pinv_bit_for_bit(m):
    for uu, deficient in _uu_blocks(m):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = _pinv_uu(uu)
        # Exactly one RankDeficientWarning on a deficient block and nothing
        # else: no divide-by-zero or invalid-value RuntimeWarning.
        expected = [RankDeficientWarning] if deficient else []
        assert [w.category for w in caught] == expected
        assert _same_bits(got, np.linalg.pinv(uu, rcond=PINV_TOL))


def _stacks(m):
    """(stack, deficient flags) of the _uu_blocks(m) blocks in a fixed
    shuffled order, with one leading axis and with two. The second has every
    block in each row: scaled by 2**20 in the first row and backwards in
    the second, so each block's cutoff must come from its own largest
    singular value, not from another block's."""
    blocks, flags = zip(*_uu_blocks(m))
    order = np.random.default_rng(200 + m).permutation(len(blocks))
    stack, flags = np.stack(blocks)[order], np.array(flags)[order]
    yield stack, flags
    yield np.stack([2.0**20 * stack, stack[::-1]]), np.stack([flags, flags[::-1]])


@pytest.mark.parametrize("m", [1, 2, 3])
def test_pinv_uu_on_a_stack_equals_numpy_pinv_per_block(m):
    for stack, flags in _stacks(m):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RankDeficientWarning)
            got = _pinv_uu(stack)
        assert got.shape == stack.shape
        for index in np.ndindex(flags.shape):
            assert _same_bits(got[index],
                              np.linalg.pinv(stack[index], rcond=PINV_TOL))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_pinv_uu_warns_once_per_stack_naming_the_first_deficient_block(m):
    for stack, flags in _stacks(m):
        cases = [(stack, flags)]
        # The well-conditioned blocks alone, as one flat stack.
        keep = ~flags.reshape(-1)
        cases.append((stack.reshape(-1, m, m)[keep], flags.reshape(-1)[keep]))
        for blocks, deficient in cases:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                _pinv_uu(blocks)
            # One RankDeficientWarning for the whole call, or none, and never
            # a divide-by-zero or invalid-value RuntimeWarning.
            expected = [RankDeficientWarning] if deficient.any() else []
            assert [w.category for w in caught] == expected
            if deficient.any():
                first = tuple(int(i) for i in np.argwhere(deficient)[0])
                message = str(caught[0].message)
                assert f"in {deficient.sum()} of {deficient.size} blocks" in message
                assert f"(first at index {first})" in message


@pytest.mark.parametrize("m", [1, 2, 3])
def test_empty_stacks_give_empty_stacks(m):
    n = 2
    G = np.empty((0, n + m, n + m))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _pinv_uu(np.empty((0, m, m))).shape == (0, m, m)
        assert pi_map(G, n).shape == (0, n, n)
        Y = y_operator(G, np.empty((0, n, n + m)), np.eye(n), np.eye(m))
    assert Y.shape == (0, n + m, n + m)


@pytest.mark.parametrize("N", [1, 4, 32])
@pytest.mark.parametrize("m", [1, 2])
def test_y_operator_on_a_stack_equals_per_sensor_calls(N, m):
    n = 2
    rng = np.random.default_rng(40 + N + m)
    U, V = rng.standard_normal((2, n, n + m))
    Q = np.diag(rng.uniform(0.5, 1.5, n))
    R = np.diag(rng.uniform(0.5, 1.5, m))
    X = rng.standard_normal((N, n + m, n + m))
    G = symmetrize(X @ X.swapaxes(1, 2) + 0.5 * np.eye(n + m))
    omegas = rng.normal(1.0, 0.5, size=N)
    shared = U + omegas[0] * V
    private = U + omegas[:, None, None] * V
    for Uk, plants in ((shared, [shared] * N), (private, private)):
        assert _same_bits(
            y_operator(G, Uk, Q, R),
            np.stack([y_operator(G[i], plants[i], Q, R) for i in range(N)]),
        )


def test_y_operator_equals_reference_bit_for_bit(bench_sys):
    rng = np.random.default_rng(5)
    for _ in range(50):
        X = rng.standard_normal((3, 3))
        G = X @ X.T + 0.5 * np.eye(3)
        omegas = rng.normal(1.0, 0.5, size=4)
        for Uk in (realize(bench_sys, omegas[0]), realize(bench_sys, omegas)):
            assert _same_bits(
                y_operator(G, Uk, bench_sys.Q, bench_sys.R),
                _y_reference(G, Uk, bench_sys.Q, bench_sys.R),
            )


@pytest.mark.parametrize(
    "spec, mode, private",
    [
        ("single", "uniform", False),
        ("ring:4", "uniform", False),
        ("ring:4", "masked", True),
        ("ring:32", "masked", True),
        ("ring:32", "uniform", False),
        # Uniform and masked gains are powers of two, which scale exactly;
        # generic gains also pin the order of the gain and step products.
        ("ring:4", "generic", True),
    ],
)
def test_distributed_round_equals_reference_bit_for_bit(bench_sys, spec, mode,
                                                        private):
    g = build_graph(spec)
    N = g.n_sensors
    cons = consensus_operator(g)
    rng = np.random.default_rng(21)
    if mode == "generic":
        gains = rng.uniform(0.5, 1.5, size=(N, 3))
    else:
        gains = allocate_gains(g, (bench_sys.n, bench_sys.m), mode)
    sched = Schedule(scale=0.05)
    X = rng.standard_normal((N, 3, 3))
    G0 = X @ X.swapaxes(1, 2) + np.eye(3)
    bank = ref = (G0 + G0.swapaxes(1, 2)) / 2.0
    for k in range(8):
        omegas = rng.normal(1.0, 0.3, size=N if private else None)
        Uk = realize(bench_sys, omegas)
        bank = distributed_round(bank, k, bench_sys, cons, gains, Uk, sched)
        ref = _round_reference(ref, k, bench_sys, cons, gains, Uk, sched)
        assert _same_bits(bank, ref)


# Every kind of graph the descriptors build; the star and the last edge list
# have unequal degrees, so their neighbour tables are padded.
GRAPHS = ["single", "ring:5", "path:5", "star:6", "complete:5",
          "edges:1-2,2-3,3-4,4-1,1-3,4-5"]


def _bank_stack(rng, shape):
    X = rng.standard_normal((*shape, 3, 3))
    return symmetrize(X @ X.swapaxes(-1, -2) + np.eye(3))


@pytest.mark.parametrize("spec", GRAPHS)
@pytest.mark.parametrize("S", [1, 3])
@pytest.mark.parametrize("private", [False, True])
def test_round_on_a_seed_stack_equals_reference_bit_for_bit(bench_sys, spec, S,
                                                            private):
    g = build_graph(spec)
    N = g.n_sensors
    cons = consensus_operator(g)
    gains = allocate_gains(g, (bench_sys.n, bench_sys.m), "uniform")
    sched = Schedule(scale=0.05)
    # The S banks lie on one flat (S*N, d, d) sensor axis, as run_learners
    # lays them out; each bank must get the bits of its round alone.
    rng = np.random.default_rng(31)
    ref = _bank_stack(rng, (S, N))
    stack = ref.reshape(S * N, 3, 3)
    table, w = _mixing([cons] * S)
    for k in range(6):
        Uk = realize(bench_sys, rng.normal(1.0, 0.3, size=(S, N if private else 1)))
        flat = np.broadcast_to(Uk, (S, N, *Uk.shape[2:])).reshape(S * N, *Uk.shape[2:])
        stack, norms = _round(stack, flat, bench_sys, table, w,
                              np.tile(gains, (S, 1))[:, :, None], sched.alpha(k))
        assert (norms <= DIVERGENCE_CAP).all()
        assert _same_bits(norms, np.linalg.norm(stack, axis=(-2, -1)))
        ref = np.stack([_round_reference(G, k, bench_sys, cons, gains, U, sched)
                        for G, U in zip(ref, Uk)])
        assert _same_bits(stack, ref.reshape(S * N, 3, 3))


def _mixing_cases(rng, shape):
    """Stacks that probe the mixing sum's bits: generic values, sensors that
    agree exactly, entries of +0 and -0 mixed across sensors (alone and
    next to nonzeros), and entries around 1e150."""
    yield rng.standard_normal(shape)
    yield np.broadcast_to(rng.standard_normal(shape[-2:]), shape).copy()
    agree = rng.standard_normal(shape)
    agree[..., ::2, :, :] = agree[..., :1, :, :]
    yield agree
    yield rng.choice([0.0, -0.0], size=shape)
    yield rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], size=shape)
    yield 1e150 * rng.standard_normal(shape)
    yield rng.choice([0.0, -0.0, 1e150, -1e150, 3e149], size=shape)


@pytest.mark.parametrize("spec", GRAPHS)
@pytest.mark.parametrize("S", [1, 3])
def test_mixing_equals_dense_reference_bit_for_bit(spec, S):
    # S banks of the graph on one flat (S*N, d, d) sensor axis.
    cons = consensus_operator(build_graph(spec))
    N = cons.graph.n_sensors
    table, w = _mixing([cons] * S)
    rng = np.random.default_rng(41)
    for G in _mixing_cases(rng, (S, N, 3, 3)):
        got = _mix(G.reshape(S * N, 3, 3), table, w).reshape(S, N, 3, 3)
        ref = _mix_reference(G, cons)
        assert _same_bits(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))
        for s in range(S):  # each bank of the axis as if mixed alone
            assert _same_bits(got[s], _mix(G[s], *_mixing([cons])))


def test_one_round_on_200_sensors_stays_below_a_megabyte(bench_sys):
    # Three banks on one flat (S*N, d, d) sensor axis. The round's
    # temporaries are a few (S*N, d, d) stacks: 43 KB each here, where the
    # dense pairwise differences alone would take 8.6 MB.
    g = build_graph("ring:200")
    cons = consensus_operator(g)
    gains = np.tile(allocate_gains(g, (bench_sys.n, bench_sys.m), "uniform"),
                    (3, 1))[:, :, None]
    rng = np.random.default_rng(51)
    G = _bank_stack(rng, (600,))
    Uk = realize(bench_sys, rng.normal(1.0, 0.3, size=600))
    table, w = _mixing([cons] * 3)
    _round(G, Uk, bench_sys, table, w, gains, 0.01)  # first-call set-up
    tracemalloc.start()
    try:
        _round(G, Uk, bench_sys, table, w, gains, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _spread_bank_reference(sys, N, rng, scale):
    """The per-sensor loop: each sensor's M'M, scaled by its own
    np.linalg.norm, added to diag(Q, R) and symmetrized."""
    d = sys.n + sys.m
    streams = [rng.substream(_NS_JITTER, i) for i in range(N)]
    Ms = draw_noise_rows(streams, NoiseModel(0.0, 1.0), d * d).reshape(-1, d, d)
    bank = []
    for M in Ms:
        E = symmetrize(M.T @ M)
        bank.append(symmetrize(sys.cost_block() + scale * E / np.linalg.norm(E)))
    return np.stack(bank)


@pytest.mark.parametrize("N", [1, 4, 32, 70])
@pytest.mark.parametrize("scale", [0.1, 0.37, 0.0])
@pytest.mark.parametrize("m", [1, 2])
def test_spread_bank_equals_per_sensor_loop_bit_for_bit(bench_sys, N, scale, m):
    if m == 2:  # d = 4, so each jitter norm sums 16 squares
        bench_sys = SystemModel(A=bench_sys.A, A_bar=bench_sys.A_bar,
                                B=[[0.7, 0.1], [0.3, -0.2]],
                                B_bar=[[0.1, 0.0], [0.7, 0.4]],
                                Q=bench_sys.Q, R=[[1.0, 0.3], [0.3, 0.8]])
    bank = initial_bank(bench_sys, N, RngStream(11, 2), init="spread",
                        spread_scale=scale)
    assert _same_bits(bank, _spread_bank_reference(bench_sys, N, RngStream(11, 2),
                                                   scale))
