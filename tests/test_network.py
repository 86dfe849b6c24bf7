"""Graph, BFS, disruption, and detour-score tests."""

import numpy as np
import pytest

from distreg.network import (
    Disruption,
    Graph,
    bfs_distance,
    disrupted_adjacency,
    feasible_origins,
)
from distreg.oracles import detour_score, feasible

PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])
CYCLE4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
# two routes from 0 to 2: direct 0-1-2 and the detour 0-3-4-2
TWO_ROUTES = Graph.from_edges(5, [(0, 1), (1, 2), (0, 3), (3, 4), (4, 2)])


class TestGraph:
    def test_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            Graph(np.array([[0, 1], [0, 0]]))
        with pytest.raises(ValueError, match="diagonal"):
            Graph(np.array([[1, 1], [1, 0]]))
        with pytest.raises(ValueError, match="0 or 1"):
            Graph(np.array([[0, 2], [2, 0]]))

    def test_from_edges_bounds(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(2, [(0, 5)])
        with pytest.raises(ValueError, match="self edge"):
            Graph.from_edges(2, [(1, 1)])

    def test_edges_roundtrip(self):
        assert CYCLE4.edges() == [(0, 1), (0, 3), (1, 2), (2, 3)]


class TestBfsDistance:
    def test_line_graph(self):
        assert bfs_distance(PATH3, 0).tolist() == [0.0, 1.0, 2.0]

    def test_isolated_node(self):
        g = Graph.from_edges(3, [(0, 1)])
        dist = bfs_distance(g, 2)
        assert dist[2] == 0.0 and np.isinf(dist[0]) and np.isinf(dist[1])

    def test_cycle_hand_bfs(self):
        assert bfs_distance(CYCLE4, 0)[2] == 2.0

    def test_invalid_source(self):
        with pytest.raises(ValueError, match="out of range"):
            bfs_distance(PATH3, 7)

    def test_symmetry_random_graphs(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            n = 12
            adj = (rng.random((n, n)) < 0.2).astype(int)
            adj = np.triu(adj, 1)
            g = Graph(adj + adj.T)
            D = np.stack([bfs_distance(g, v) for v in range(n)])
            assert np.array_equal(D, D.T)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        n = 10
        adj = (rng.random((n, n)) < 0.3).astype(int)
        adj = np.triu(adj, 1)
        g = Graph(adj + adj.T)
        D = np.stack([bfs_distance(g, v) for v in range(n)])
        for a in range(n):
            for b_node in range(n):
                for c in range(n):
                    if np.isfinite(D[a, c]) and np.isfinite(D[c, b_node]):
                        assert D[a, b_node] <= D[a, c] + D[c, b_node]


class TestDisruptedAdjacency:
    def test_cut_vertex_removal(self):
        g = disrupted_adjacency(PATH3, [1])
        assert np.sum(g.adjacency) == 0

    def test_empty_roi_is_identity(self):
        g = disrupted_adjacency(CYCLE4, [])
        assert np.array_equal(g.adjacency, CYCLE4.adjacency)

    def test_cycle_hand_check(self):
        g = disrupted_adjacency(CYCLE4, [1])
        assert g.edges() == [(0, 3), (2, 3)]

    def test_entrywise_dominated(self):
        g = disrupted_adjacency(TWO_ROUTES, [3])
        assert np.all(g.adjacency <= TWO_ROUTES.adjacency)

    def test_idempotent(self):
        once = disrupted_adjacency(CYCLE4, [1])
        twice = disrupted_adjacency(once, [1])
        assert np.array_equal(once.adjacency, twice.adjacency)

    def test_invalid_ids(self):
        with pytest.raises(ValueError, match="out of range"):
            disrupted_adjacency(PATH3, [9])


class TestDetourScore:
    def test_unchanged_path(self):
        g_dis = disrupted_adjacency(TWO_ROUTES, [4])
        assert detour_score(TWO_ROUTES, g_dis, 0, 1) == 0.0

    def test_disconnection_maps_to_one(self):
        g_dis = disrupted_adjacency(PATH3, [1])
        assert detour_score(PATH3, g_dis, 0, 2) == 1.0

    def test_hand_worked_third(self):
        g_dis = disrupted_adjacency(TWO_ROUTES, [1])
        assert detour_score(TWO_ROUTES, g_dis, 0, 2) == pytest.approx(1.0 / 3.0)

    def test_same_node_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            detour_score(PATH3, PATH3, 1, 1)

    def test_disconnected_in_natural_graph_rejected(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError, match="disconnected"):
            detour_score(g, g, 0, 2)

    def test_range_under_random_disruptions(self):
        # edge deletion only lengthens paths, so the score stays in [0, 1]
        rng = np.random.default_rng(2)
        for _ in range(10):
            roi = [int(rng.integers(0, 5))]
            g_dis = disrupted_adjacency(TWO_ROUTES, roi)
            for o in range(5):
                for d in range(5):
                    if o == d or o in roi or d in roi:
                        continue
                    s = detour_score(TWO_ROUTES, g_dis, o, d)
                    assert 0.0 <= s <= 1.0


class TestFeasible:
    def test_unchanged_always_feasible(self):
        g_dis = disrupted_adjacency(TWO_ROUTES, [4])
        assert feasible(0, 1, TWO_ROUTES, g_dis, xi=1e-9)

    def test_disconnected_infeasible(self):
        g_dis = disrupted_adjacency(PATH3, [1])
        assert not feasible(0, 2, PATH3, g_dis, xi=0.5)

    def test_threshold_arithmetic(self):
        g_dis = disrupted_adjacency(TWO_ROUTES, [1])
        assert feasible(0, 2, TWO_ROUTES, g_dis, xi=0.4)
        assert not feasible(0, 2, TWO_ROUTES, g_dis, xi=0.3)

    def test_xi_must_be_positive(self):
        with pytest.raises(ValueError, match="xi"):
            feasible(0, 1, PATH3, PATH3, xi=0.0)


class TestFeasibleOrigins:
    def test_matches_pairwise_op(self):
        g_dis = disrupted_adjacency(TWO_ROUTES, [1])
        mask = feasible_origins(TWO_ROUTES, g_dis, 2, xi=0.4)
        for o in range(5):
            if o == 2:
                assert mask[o]
            else:
                assert mask[o] == feasible(o, 2, TWO_ROUTES, g_dis, xi=0.4)

    def test_destination_in_roi_leaves_only_itself(self):
        g_dis = disrupted_adjacency(TWO_ROUTES, [1])
        mask = feasible_origins(TWO_ROUTES, g_dis, 1, xi=0.25)
        assert mask.tolist() == [False, True, False, False, False]

    def test_refuses_a_disrupted_graph_that_is_not_a_subgraph(self):
        with pytest.raises(ValueError, match="disrupted graph has 3 nodes, the natural graph 5"):
            feasible_origins(TWO_ROUTES, PATH3, 2, xi=0.4)
        # an edge the natural graph lacks would shorten a path, not lengthen it
        adj = TWO_ROUTES.adjacency.copy()
        adj[0, 4] = adj[4, 0] = 1
        with pytest.raises(ValueError, match=r"edge \(0, 4\), which the natural graph lacks"):
            feasible_origins(TWO_ROUTES, Graph(adj), 2, xi=0.4)


class TestDisruption:
    def test_basic_fields(self):
        z = Disruption(day=2, t_start=540, t_end=600, roi=(5, 6))
        assert z.roi == (5, 6)

    def test_duplicate_roi_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Disruption(day=0, t_start=0, t_end=1, roi=(3, 3))

    def test_empty_roi_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            Disruption(day=0, t_start=0, t_end=1, roi=())

    def test_time_order(self):
        with pytest.raises(ValueError, match="t_start"):
            Disruption(day=0, t_start=5, t_end=1, roi=(0,))

    def test_validate_against(self):
        z = Disruption(day=0, t_start=10, t_end=20, roi=(4,))
        z.validate_against(5, 0, 100)
        with pytest.raises(ValueError, match="out of range"):
            z.validate_against(3, 0, 100)
        with pytest.raises(ValueError, match="window"):
            z.validate_against(5, 0, 15)
