"""Protocol unit tests: the pure half of the wire contract.

Everything the cache and coalescer key on is decided here, so these
tests pin the canonicalization rules: equal graphs fingerprint equal
regardless of upload order, single-run patterns never split the cache on
``iterations``, and malformed requests raise :class:`ProtocolError`
(which the server answers, never crashes on).
"""

from __future__ import annotations

import pytest

from repro.serve.protocol import (
    DEFAULT_ITERATIONS,
    ProtocolError,
    build_graph,
    cache_key,
    construction_fingerprint,
    group_key,
    parse_pattern,
    parse_request,
)


class TestParsePattern:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("triangle", ("triangle", "triangle", 3, False)),
            ("k4", ("k4", "clique", 4, False)),
            ("c4", ("c4", "even-cycle", 2, True)),
            ("c8", ("c8", "even-cycle", 4, True)),
            ("odd-c5", ("odd-c5", "odd-cycle", 5, True)),
            ("  C4 ", ("c4", "even-cycle", 2, True)),
            ("path3", ("path3", "tree", 3, True)),
        ],
    )
    def test_grammar(self, raw, expected):
        assert parse_pattern(raw) == expected

    @pytest.mark.parametrize(
        "raw", ["", "c3", "c5", "odd-c4", "odd-c1", "k2", "kX", "cX", "square",
                "path0", "pathX"]
    )
    def test_rejects(self, raw):
        with pytest.raises(ProtocolError):
            parse_pattern(raw)


class TestGraphSpecs:
    def test_upload_order_never_splits_the_fingerprint(self):
        a = parse_request({"id": 1, "pattern": "triangle",
                           "graph": {"kind": "edges",
                                     "edges": [[0, 1], [1, 2], [2, 0]]}})
        b = parse_request({"id": 2, "pattern": "triangle",
                           "graph": {"kind": "edges",
                                     "edges": [[2, 1], [0, 2], [1, 0], [0, 1]]}})
        assert a.graph_spec == b.graph_spec
        assert construction_fingerprint(a.graph_spec) == \
            construction_fingerprint(b.graph_spec)

    def test_generated_families_build_deterministically(self):
        spec = parse_request({"id": 1, "pattern": "c4",
                              "graph": {"kind": "gnp", "n": 24, "p": 0.2,
                                        "seed": 3}}).graph_spec
        g1, g2 = build_graph(spec), build_graph(spec)
        assert sorted(g1.edges()) == sorted(g2.edges())

    @pytest.mark.parametrize(
        "graph",
        [
            None,
            {"kind": "torus"},
            {"kind": "gnp", "n": 0, "p": 0.5},
            {"kind": "gnp", "n": 8, "p": 1.5},
            {"kind": "cycle", "k": 2},
            {"kind": "grid", "rows": 0, "cols": 3},
            {"kind": "edges", "edges": []},
            {"kind": "edges", "edges": [[0, 0]]},
            {"kind": "edges", "edges": [[0, "x"]]},
        ],
    )
    def test_bad_graphs_reject(self, graph):
        with pytest.raises(ProtocolError):
            parse_request({"id": 1, "pattern": "triangle", "graph": graph})

    def test_cycle_path_clique_grid_build(self):
        for graph, nodes in [
            ({"kind": "cycle", "k": 5}, 5),
            ({"kind": "path", "k": 4}, 4),
            ({"kind": "clique", "s": 4}, 4),
            ({"kind": "grid", "rows": 2, "cols": 3}, 6),
        ]:
            spec = parse_request(
                {"id": 1, "pattern": "triangle", "graph": graph}
            ).graph_spec
            assert build_graph(spec).number_of_nodes() == nodes


class TestParseRequest:
    GRAPH = {"kind": "cycle", "k": 5}

    def test_amplified_defaults(self):
        req = parse_request({"id": "a", "pattern": "c4", "graph": self.GRAPH})
        assert req.amplified and req.iterations == DEFAULT_ITERATIONS
        assert req.seed == 0 and req.bandwidth is None
        assert req.policy_spec == ""

    def test_single_run_iterations_canonicalize_to_one(self):
        req = parse_request({"id": "a", "pattern": "triangle",
                             "graph": self.GRAPH, "iterations": 99})
        assert not req.amplified and req.iterations == 1

    def test_policy_spec_validated_at_parse_time(self):
        with pytest.raises(ProtocolError, match="policy"):
            parse_request({"id": "a", "pattern": "c4", "graph": self.GRAPH,
                           "policy": "bogus=1"})

    @pytest.mark.parametrize(
        "patch",
        [
            {"id": None},
            {"pattern": 7},
            {"seed": "x"},
            {"iterations": 0},
            {"bandwidth": 0},
            {"policy": 5},
        ],
    )
    def test_bad_fields_reject(self, patch):
        base = {"id": "a", "pattern": "c4", "graph": self.GRAPH}
        base.update(patch)
        if patch.get("id", "a") is None:
            del base["id"]
        with pytest.raises(ProtocolError):
            parse_request(base)

    def test_non_object_rejects(self):
        with pytest.raises(ProtocolError):
            parse_request([1, 2, 3])


class TestKeyAnatomy:
    def _req(self, **over):
        base = {"id": "a", "pattern": "c4",
                "graph": {"kind": "cycle", "k": 4}, "seed": 1,
                "iterations": 16}
        base.update(over)
        return parse_request(base)

    def test_group_key_is_cache_key_minus_iterations(self):
        a, b = self._req(iterations=16), self._req(iterations=4)
        assert cache_key(a, "h") != cache_key(b, "h")
        assert group_key(a, "h") == group_key(b, "h")

    def test_every_other_field_splits_both_keys(self):
        base = self._req()
        for other in [
            self._req(seed=2),
            self._req(pattern="c6"),
            self._req(bandwidth=9),
            self._req(graph={"kind": "cycle", "k": 6}),
        ]:
            assert cache_key(base, "h") != cache_key(other, "h")
            assert group_key(base, "h") != group_key(other, "h")
        assert cache_key(base, "h") != cache_key(base, "h2")
