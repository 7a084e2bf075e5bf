import numpy as np
import pytest

from lqlearn import (
    Graph,
    allocate_gains,
    build_graph,
    consensus_operator,
)
from lqlearn.errors import BadSpecError, DisconnectedError, NotContractiveError


def mixing_matrix(cons):
    """A_mix = I - w L, the mixing step as a matrix."""
    return np.eye(cons.L.shape[0]) - cons.w * cons.L


class TestBuildGraph:
    def test_ring4(self):
        g = build_graph("ring:4")
        assert g.n_sensors == 4
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})

    def test_path2_single_edge(self):
        g = build_graph("path:2")
        assert g.edges == frozenset({(0, 1)})

    def test_star_and_complete(self):
        star = build_graph("star:4")
        assert star.edges == frozenset({(0, 1), (0, 2), (0, 3)})
        comp = build_graph("complete:3")
        assert comp.edges == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_explicit_edges_one_based(self):
        g = build_graph("edges:1-2,2-3")
        assert g.n_sensors == 3
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_explicit_disconnected(self):
        with pytest.raises(DisconnectedError):
            build_graph("edges:1-2,3-4")

    def test_single_sensor_degenerate(self):
        g = build_graph("single")
        assert g.n_sensors == 1
        assert g.edges == frozenset()

    @pytest.mark.parametrize("desc", ["ring:1", "path:0", "complete:1"])
    def test_small_n_rejected(self, desc):
        with pytest.raises(BadSpecError):
            build_graph(desc)

    @pytest.mark.parametrize("desc", ["blob:4", "ring:x", "edges:1+2", "ring",
                                      "edges:0-1"])
    def test_malformed_rejected(self, desc):
        with pytest.raises(BadSpecError):
            build_graph(desc)

    def test_direct_construction_checks_connectivity(self):
        with pytest.raises(DisconnectedError):
            Graph(3, frozenset({(0, 1)}))
        with pytest.raises(BadSpecError):
            Graph(2, frozenset({(0, 0)}))

    @pytest.mark.parametrize("n, edges, message", [
        (0, frozenset(), "graph needs at least one vertex"),
        (2, frozenset({(0, 2)}), r"edge \(0, 2\) out of range"),
    ], ids=["no-vertex", "out-of-range"])
    def test_direct_construction_rejects_bad_specs(self, n, edges, message):
        with pytest.raises(BadSpecError, match=message):
            Graph(n, edges)


class TestAdjacency:
    """neighbors, degrees, laplacian and the neighbour table all come from one
    adjacency; each is checked against a reference built from the edge list."""

    SPECS = ["single", "path:2", "ring:5", "path:6", "star:7", "complete:5",
             "edges:1-2,2-3,3-4,4-1,1-3,4-5", "edges:3-1,1-2,2-3,5-3,4-5"]

    @pytest.mark.parametrize("spec", SPECS)
    def test_neighbors_degrees_and_laplacian(self, spec):
        g = build_graph(spec)
        N = g.n_sensors
        ref_nbrs = [sorted({b if a == i else a for a, b in g.edges if i in (a, b)})
                    for i in range(N)]
        L = np.zeros((N, N))
        for i, j in g.edges:
            L[i, j] = L[j, i] = -1.0
            L[i, i] += 1.0
            L[j, j] += 1.0
        for i in range(N):
            assert g.neighbors(i) == tuple(ref_nbrs[i])
        assert np.array_equal(g.degrees(), [len(nbrs) for nbrs in ref_nbrs])
        assert g.degrees().dtype.kind == "i"
        assert np.array_equal(g.laplacian(), L)

    @pytest.mark.parametrize("spec", SPECS)
    def test_neighbor_columns_padded_with_the_sensor_itself(self, spec):
        g = build_graph(spec)
        N, D = g.n_sensors, int(g.degrees().max())
        cols = g.neighbor_columns
        assert cols.shape == (D, N)
        assert not cols.flags.writeable
        for i in range(N):
            nbrs = g.neighbors(i)
            assert tuple(cols[:len(nbrs), i]) == nbrs
            assert np.all(cols[len(nbrs):, i] == i)

    def test_duplicate_and_reversed_edges_collapse(self):
        g = Graph(3, frozenset({(0, 1), (1, 0), (2, 1)}))
        assert g.edges == frozenset({(0, 1), (1, 2)})
        assert g.neighbors(1) == (0, 2)
        assert np.array_equal(g.degrees(), [1, 2, 1])

    def test_equality_ignores_the_derived_tables(self):
        ring = Graph(4, frozenset({(3, 0), (0, 1), (1, 2), (2, 3)}))
        assert build_graph("ring:4") == ring
        assert hash(build_graph("ring:4")) == hash(build_graph("ring:4"))
        assert "neighbor_columns" not in repr(build_graph("ring:4"))


class TestConsensusOperator:
    def test_complete2_half_weight(self):
        cons = consensus_operator(build_graph("complete:2"), 0.5)
        assert mixing_matrix(cons) == pytest.approx(
            np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert cons.rho == pytest.approx(0.0, abs=1e-12)

    def test_path4_unit_weight_not_contractive(self):
        with pytest.raises(NotContractiveError):
            consensus_operator(build_graph("path:4"), 1.0)

    def test_path4_third_weight_spectrum(self):
        cons = consensus_operator(build_graph("path:4"), 1.0 / 3.0)
        # Laplacian spectrum of the 4-path: {0, 2-sqrt(2), 2, 2+sqrt(2)}.
        lam = np.array([2.0 - np.sqrt(2.0), 2.0, 2.0 + np.sqrt(2.0)])
        assert cons.rho == pytest.approx(np.abs(1.0 - lam / 3.0).max())

    def test_default_weight_from_max_degree(self):
        cons = consensus_operator(build_graph("star:5"))
        assert cons.w == pytest.approx(1.0 / 5.0)
        ring = consensus_operator(build_graph("ring:4"))
        assert ring.w == pytest.approx(1.0 / 3.0)

    def test_laplacian_structure(self):
        g = build_graph("ring:4")
        L = g.laplacian()
        assert np.array_equal(L, L.T)
        assert np.all(L.sum(axis=1) == 0.0)
        off = L[~np.eye(4, dtype=bool)]
        assert set(np.unique(off)) <= {0.0, -1.0}

    def test_mixing_doubly_stochastic(self):
        for desc in ("ring:4", "path:5", "star:6", "complete:4"):
            cons = consensus_operator(build_graph(desc))
            A_mix = mixing_matrix(cons)
            assert A_mix.sum(axis=0) == pytest.approx(np.ones(A_mix.shape[0]))
            assert A_mix.sum(axis=1) == pytest.approx(np.ones(A_mix.shape[0]))
            assert np.array_equal(A_mix, A_mix.T)

    def test_unit_eigenvalue_simple_when_connected(self):
        cons = consensus_operator(build_graph("ring:5"))
        eig = np.sort(np.linalg.eigvalsh(mixing_matrix(cons)))
        assert eig[-1] == pytest.approx(1.0)
        assert eig[-2] < 1.0 - 1e-9

    def test_rho_matches_bruteforce(self):
        for desc in ("ring:4", "path:7", "star:4", "edges:1-2,1-3,3-4,2-4",
                     "edges:1-2,2-3,3-4,1-4,1-3", "ring:32"):
            cons = consensus_operator(build_graph(desc))
            N = cons.L.shape[0]
            M = np.full((N, N), 1.0 / N)
            brute = np.abs(np.linalg.eigvals(mixing_matrix(cons) - M)).max()
            assert cons.rho == pytest.approx(brute, abs=1e-10)

    def test_single_sensor(self):
        cons = consensus_operator(build_graph("single"))
        assert mixing_matrix(cons) == pytest.approx(np.array([[1.0]]))
        assert cons.rho == pytest.approx(0.0)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            consensus_operator(build_graph("ring:4"), 0.0)

    def test_rejects_nan_weight(self):
        with pytest.raises(ValueError):
            consensus_operator(build_graph("ring:4"), float("nan"))

    @pytest.mark.parametrize("desc", ["single", "ring:4"])
    def test_rejects_infinite_weight(self, desc):
        # One sensor has lambda_max = 0, where w * lambda_max is NaN and the
        # contraction check alone would pass it.
        with pytest.raises(ValueError, match="finite and > 0, got inf"):
            consensus_operator(build_graph(desc), float("inf"))


class TestAllocateGains:
    def test_uniform_sums_to_NI(self):
        g = build_graph("ring:4")
        alloc = allocate_gains(g, (2, 1), "uniform")
        assert all(np.array_equal(np.diag(s), np.eye(3)) for s in alloc)
        total = np.diag(alloc.sum(axis=0))
        assert np.array_equal(total, 4.0 * np.eye(3))

    def test_masked_square_case(self):
        g = build_graph("ring:3")
        alloc = allocate_gains(g, (2, 1), "masked")
        for i, s in enumerate(alloc):
            L = np.diag(s)
            e = np.zeros(3)
            e[i] = 1.0
            assert np.array_equal(L, 3.0 * np.diag(e))

    def test_masked_round_robin(self):
        g = build_graph("path:2")
        alloc = allocate_gains(g, (2, 1), "masked")
        assert np.array_equal(np.diag(alloc[0]),
                              2.0 * np.diag([1.0, 0.0, 1.0]))
        assert np.array_equal(np.diag(alloc[1]),
                              2.0 * np.diag([0.0, 1.0, 0.0]))

    @pytest.mark.parametrize("desc,dims", [("ring:4", (2, 1)), ("star:5", (3, 2)),
                                           ("complete:7", (2, 2))])
    def test_sum_exact_for_any_shape(self, desc, dims):
        g = build_graph(desc)
        for mode in ("uniform", "masked"):
            alloc = allocate_gains(g, dims, mode)
            total = np.diag(alloc.sum(axis=0))
            assert np.array_equal(total, g.n_sensors * np.eye(sum(dims)))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            allocate_gains(build_graph("ring:4"), (2, 1), "diagonal")
