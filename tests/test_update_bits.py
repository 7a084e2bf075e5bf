"""The sensor update computes with fewer numpy calls than the textbook
expressions, but the same float operations in the same order. Each reference
below is the plain expression (np.linalg.pinv, new arrays instead of in-place
updates, np.stack over the sensors), and the update must equal it bit for
bit, so traces and CSVs never move."""

import warnings

import numpy as np
import pytest

from lqlearn import (
    RankDeficientWarning,
    Schedule,
    SensorBank,
    allocate_gains,
    build_graph,
    consensus_operator,
    distributed_round,
    realize,
    symmetrize,
    y_operator,
)
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


def _round_reference(bank, sys, cons, gains, Uk, sched):
    N = bank.n_sensors
    Uk = np.broadcast_to(Uk, (N, sys.n, sys.n + sys.m))
    alpha = sched.alpha(bank.k)
    G = bank.G
    Y = np.stack([_y_reference(g, u, sys.Q, sys.R) for g, u in zip(G, Uk)])
    G = G - cons.w * np.einsum("ij,ijab->iab", cons.L, G[None] - G[:, None])
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
    bank = ref = SensorBank(G=(G0 + G0.swapaxes(1, 2)) / 2.0, k=0)
    for _ in range(8):
        omegas = rng.normal(1.0, 0.3, size=N if private else None)
        Uk = realize(bench_sys, omegas)
        bank = distributed_round(bank, bench_sys, cons, gains, Uk, sched)
        ref = SensorBank(G=_round_reference(ref, bench_sys, cons, gains, Uk,
                                            sched), k=ref.k + 1)
        assert bank.k == ref.k
        assert _same_bits(bank.G, ref.G)
