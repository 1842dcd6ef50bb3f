"""Multigraph storage invariants and edge-list serialization."""

import numpy as np
import pytest

from ultrasmall.multigraph import MultiGraph, read_edge_list


def test_from_pairs_self_loop_counts_twice():
    # vertex 0 with a self-loop (slots 0-1) and one edge to vertex 1
    g = MultiGraph.from_pairs([3, 1], [(0, 1), (2, 3)])
    assert g.degree(0) == 3
    assert g.degree(1) == 1
    assert sorted(g.neighbors(0).tolist()) == [0, 0, 1]
    assert g.num_edges == 2


def test_partner_involution():
    rng = np.random.default_rng(0)
    deg = np.array([3, 3, 2, 2, 2])
    perm = rng.permutation(int(deg.sum()))
    g = MultiGraph.from_pairs(deg, perm.reshape(-1, 2))
    slots = np.arange(g.num_half_edges)
    assert np.array_equal(g.partner[g.partner], slots)
    assert np.all(g.partner != slots)
    assert np.array_equal(g.degrees, deg)


def test_from_edge_list_matches_from_pairs():
    edges = [(0, 1), (1, 2), (2, 2), (0, 1)]
    g = MultiGraph.from_edge_list(3, edges)
    assert g.degree(0) == 2
    assert g.degree(1) == 3
    assert g.degree(2) == 3  # one incident edge + self-loop
    got = sorted(map(tuple, np.sort(g.edges(), axis=1).tolist()))
    assert got == sorted(map(tuple, (np.sort(edges, axis=1).tolist())))


@pytest.mark.parametrize("seed", range(5))
def test_from_edge_list_slots_follow_edge_order(seed):
    # slots are dealt to each vertex in edge order: the permutation of a
    # stable sort by vertex, which the build must reproduce exactly
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    edges = rng.integers(0, n, size=(int(rng.integers(0, 200)), 2))
    edges[::7, 1] = edges[::7, 0]  # self-loops
    edges = np.concatenate([edges, edges[::5]])  # multi-edges
    flat = edges.reshape(-1)
    slot = np.empty(flat.size, dtype=np.int64)
    slot[np.argsort(flat, kind="stable")] = np.arange(flat.size)
    expect = MultiGraph.from_pairs(np.bincount(flat, minlength=n), slot.reshape(-1, 2))
    g = MultiGraph.from_edge_list(n, edges)
    assert np.array_equal(g.indptr, expect.indptr)
    assert np.array_equal(g.partner, expect.partner)
    assert np.array_equal(g.nbr, expect.nbr)


def test_edges_lists_each_edge_once():
    g = MultiGraph.from_pairs([2, 2], [(0, 2), (1, 3)])
    assert len(g.edges()) == 2


def test_edge_list_roundtrip(tmp_path):
    edges = [(0, 1), (1, 2), (3, 3)]
    g = MultiGraph.from_edge_list(5, edges)  # vertex 4 isolated
    path = tmp_path / "graph.txt"
    g.write_edge_list(path)
    # file format: header then 1-based pairs
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "# n 5"
    assert "4 4" in lines[1:]
    back = read_edge_list(path)
    assert back.n == 5
    assert np.array_equal(back.degrees, g.degrees)
    assert sorted(map(tuple, np.sort(back.edges(), axis=1).tolist())) == sorted(
        map(tuple, np.sort(g.edges(), axis=1).tolist())
    )


def test_read_edge_list_without_header(tmp_path):
    path = tmp_path / "plain.txt"
    path.write_text("1 2\n2 3\n")
    g = read_edge_list(path)
    assert g.n == 3
    assert g.num_edges == 2


def test_from_edge_list_range_check():
    with pytest.raises(ValueError):
        MultiGraph.from_edge_list(2, [(0, 2)])


def test_matching_key_distinguishes_pairings():
    a = MultiGraph.from_pairs([2, 2], [(0, 2), (1, 3)])
    b = MultiGraph.from_pairs([2, 2], [(0, 3), (1, 2)])
    c = MultiGraph.from_pairs([2, 2], [(2, 0), (3, 1)])
    assert a.matching_key() != b.matching_key()
    assert a.matching_key() == c.matching_key()


@pytest.mark.parametrize(
    "body",
    ["1\n", "1 2 3\n", "1 x\n", "1 2\n3\n", "1 2\n3 4 5\n", "1 2\n2 3.5\n",
     "1 2 3\n4 5 6\n", "# n x\n1 2\n"],
)
def test_read_edge_list_rejects_malformed_lines(tmp_path, body):
    path = tmp_path / "bad.txt"
    path.write_text("# n 9\n" + body)
    with pytest.raises(ValueError):
        read_edge_list(path)


def test_read_edge_list_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(
        "# n 6\n1 2\n\n# a comment\n   \n  #\tn  7\n2\t3  # n 8\n"
        "# n 9 words\n4 4\n\n"
    )
    g = read_edge_list(path)
    # n comes from the last comment line that is `# n <count>` alone
    assert g.n == 7
    assert g.edges().tolist() == [[0, 1], [1, 2], [3, 3]]


def test_read_edge_list_header_only(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# n 7\n")
    g = read_edge_list(path)
    assert g.n == 7 and g.num_edges == 0
    assert g.degrees.tolist() == [0] * 7
    path.write_text("")
    assert read_edge_list(path).n == 0


def test_edge_list_roundtrip_self_loops_and_multi_edges(tmp_path):
    edges = [(0, 0), (1, 2), (1, 2), (2, 1), (3, 3), (3, 3), (0, 4)]
    g = MultiGraph.from_edge_list(6, edges)
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    g.write_edge_list(first)
    back = read_edge_list(first)
    back.write_edge_list(second)
    assert first.read_bytes() == second.read_bytes()
    assert back.n == 6
    assert np.array_equal(back.degrees, [3, 3, 3, 4, 1, 0])
    assert sorted(map(tuple, np.sort(back.edges(), axis=1).tolist())) == sorted(
        map(tuple, np.sort(edges, axis=1).tolist())
    )
