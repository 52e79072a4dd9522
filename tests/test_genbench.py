import pytest

from shexval.graph import format_graph
from shexval.genbench import (
    GenConfig,
    SplitMix64,
    bench,
    bench_csv,
    generate_graph,
)
from shexval.schema import parse_schema
from shexval.validate import flood_extension, validate_multi, validate_single

CHAIN = parse_schema("t -> a::u\nu -> eps\n")
MUTUAL = parse_schema("t -> a::u\nu -> a::t\n")
SELF_LOOP = parse_schema("t -> a::t\n")
NONDET = parse_schema("t -> (a::t | a::u)*\nu -> eps\n")
SPAN = parse_schema("t -> a::u[2;40]\nu -> eps\n")


def reachable_from(g, starts):
    seen = set(starts)
    stack = list(starts)
    while stack:
        n = stack.pop()
        for _, m in g.out_lab_node(n):
            if m not in seen:
                seen.add(m)
                stack.append(m)
    return seen


class TestSplitMix64:
    def test_reference_stream_for_seed_zero(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_seed_is_masked_to_64_bits(self):
        wide = SplitMix64((1 << 64) + 7)
        narrow = SplitMix64(7)
        assert [wide.next_u64() for _ in range(4)] == [
            narrow.next_u64() for _ in range(4)
        ]

    def test_below_stays_in_range(self):
        rng = SplitMix64(42)
        draws = [rng.below(7) for _ in range(500)]
        assert set(draws) == set(range(7))

    def test_below_rejects_empty_range(self):
        with pytest.raises(ValueError):
            SplitMix64(1).below(0)

    def test_randint_hits_both_ends(self):
        rng = SplitMix64(9)
        draws = {rng.randint(3, 5) for _ in range(200)}
        assert draws == {3, 4, 5}

    def test_sample_is_distinct_and_avoids_taken(self):
        rng = SplitMix64(5)
        pool = [f"n{i}" for i in range(50)]
        taken = frozenset(pool[:10])
        got = rng.sample(pool, 8, taken)
        assert len(got) == len(set(got)) == 8
        assert not set(got) & taken

    def test_sample_dense_draw_uses_whole_pool(self):
        rng = SplitMix64(6)
        pool = ["a", "b", "c", "d"]
        assert sorted(rng.sample(pool, 4)) == pool

    def test_sample_rejects_overdraw(self):
        with pytest.raises(ValueError):
            SplitMix64(3).sample(["a", "b"], 2, frozenset(["a"]))


class TestGenConfig:
    def test_accepts_defaults(self):
        cfg = GenConfig(schema=CHAIN, n_nodes=5, seed=1)
        assert cfg.star_range == (0, 15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_nodes": -1},
            {"plus_range": (0, 15)},
            {"star_range": (5, 3)},
            {"star_range": (-1, 4)},
            {"star_range": (0, 0)},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        base = {"schema": CHAIN, "n_nodes": 3, "seed": 0}
        with pytest.raises(ValueError):
            GenConfig(**{**base, **kwargs})


class TestGenerateGraph:
    def test_same_config_gives_identical_bytes(self, fig2_schema):
        cfg = GenConfig(schema=fig2_schema, n_nodes=40, seed=77)
        g1, pre1 = generate_graph(cfg)
        g2, pre2 = generate_graph(cfg)
        assert format_graph(g1) == format_graph(g2)
        assert pre1 == pre2

    def test_different_seeds_differ(self, fig2_schema):
        g1, _ = generate_graph(GenConfig(schema=fig2_schema, n_nodes=40, seed=1))
        g2, _ = generate_graph(GenConfig(schema=fig2_schema, n_nodes=40, seed=2))
        assert format_graph(g1) != format_graph(g2)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_generated_graph_is_valid(self, fig2_schema, seed):
        g, pre = generate_graph(GenConfig(schema=fig2_schema, n_nodes=60, seed=seed))
        assert validate_multi(g, fig2_schema, "refine").valid
        assert validate_multi(g, fig2_schema, "s-refine").valid
        flooded = flood_extension(g, fig2_schema, pre, mode="multi")
        assert flooded.valid

    def test_every_node_is_reachable_from_roots(self, fig2_schema):
        g, pre = generate_graph(GenConfig(schema=fig2_schema, n_nodes=50, seed=3))
        assert reachable_from(g, pre) == g.nodes

    def test_roots_carry_their_assigned_type(self, fig2_schema):
        g, pre = generate_graph(GenConfig(schema=fig2_schema, n_nodes=30, seed=4))
        shape_types = {"BugReport", "User", "Employee"}
        for node, types in pre.items():
            assert node.startswith("u")
            assert len(types) == 1
            assert types <= shape_types

    def test_leaves_have_one_incoming_and_no_outgoing_edge(self, fig2_schema):
        g, _ = generate_graph(GenConfig(schema=fig2_schema, n_nodes=30, seed=5))
        leaves = [n for n in g.nodes if n.startswith("L")]
        assert leaves
        incoming = {n: 0 for n in leaves}
        for _, _, t in g.edges:
            if t in incoming:
                incoming[t] += 1
        assert all(count == 1 for count in incoming.values())
        assert all(not g.out_lab_node(n) for n in leaves)

    def test_cycle_schema_covers_all_nodes(self):
        g, pre = generate_graph(GenConfig(schema=SELF_LOOP, n_nodes=6, seed=8))
        assert reachable_from(g, pre) == g.nodes
        assert validate_multi(g, SELF_LOOP, "refine").valid

    def test_mutual_recursion_with_one_node_has_no_target(self):
        with pytest.raises(ValueError, match="candidate target"):
            generate_graph(GenConfig(schema=MUTUAL, n_nodes=1, seed=0))

    def test_mutual_recursion_with_enough_nodes_succeeds(self):
        for seed in range(20):
            try:
                g, _ = generate_graph(
                    GenConfig(schema=MUTUAL, n_nodes=6, seed=seed)
                )
            except ValueError:
                # Unlucky uniform assignment can starve one of the types.
                continue
            assert validate_multi(g, MUTUAL, "refine").valid
            return
        pytest.fail("no seed produced a two-sided assignment")

    def test_nondeterministic_schema_is_rejected(self):
        with pytest.raises(ValueError, match="deterministic"):
            generate_graph(GenConfig(schema=NONDET, n_nodes=3, seed=0))

    def test_zero_nodes_gives_empty_graph(self):
        g, pre = generate_graph(GenConfig(schema=CHAIN, n_nodes=0, seed=0))
        assert not g.nodes and not g.edges and pre == {}

    def test_explicit_interval_is_sampled_within_span(self):
        sizes = set()
        for seed in range(12):
            g, _ = generate_graph(GenConfig(schema=SPAN, n_nodes=1, seed=seed))
            sizes.add(len(g.edges))
        assert sizes <= set(range(2, 18))
        assert len(sizes) > 1

    def test_custom_star_range_shrinks_the_graph(self, fig2_schema):
        big, _ = generate_graph(GenConfig(schema=fig2_schema, n_nodes=60, seed=6))
        small, _ = generate_graph(
            GenConfig(schema=fig2_schema, n_nodes=60, seed=6, star_range=(0, 2))
        )
        assert len(small.edges) < len(big.edges)
        assert validate_multi(small, fig2_schema, "refine").valid

    def test_triples_per_node_ratio_is_plausible(self, fig2_schema):
        cfg = GenConfig(schema=fig2_schema, n_nodes=400, seed=2024)
        g, _ = generate_graph(cfg)
        ratio = len(g.edges) / cfg.n_nodes
        assert 4.0 <= ratio <= 7.0


class TestBench:
    def test_rows_and_csv_shape(self, fig2_schema):
        rows = bench(fig2_schema, [20, 40], ["flood", "s-refine"], repeats=2, seed=9)
        assert [(r.algo, r.n_nodes) for r in rows] == [
            ("flood", 20),
            ("s-refine", 20),
            ("flood", 40),
            ("s-refine", 40),
        ]
        assert all(r.millis >= 0.0 for r in rows)
        text = bench_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "algo,n_nodes,n_triples,seed,millis"
        assert len(lines) == 5
        assert lines[1].startswith("flood,20,")

    def test_flood_passes_graphs_with_top_leaves(self):
        schema = parse_schema("t -> a::u , extra::TOP*\nu -> eps\n")
        rows = bench(schema, [10, 20], ["flood", "refine"], repeats=2, seed=3)
        assert [r.algo for r in rows] == ["flood", "refine"] * 2

    def test_validation_by_flood_passes_graphs_with_top_leaves(self):
        # Every fresh leaf behind a ::TOP edge is reached from a typed node.
        schema = parse_schema("t -> a::TOP* , b::u?\nu -> c::TOP , d::t*\n")
        g, pre = generate_graph(GenConfig(schema=schema, n_nodes=200, seed=3))
        assert validate_multi(g, schema, "flood", pre).valid
        assert validate_single(g, schema, "flood", pre).valid

    def test_recorded_seed_reproduces_the_graph(self, fig2_schema):
        (row,) = bench(fig2_schema, [25], ["refine"], repeats=2, seed=100)
        g, _ = generate_graph(
            GenConfig(schema=fig2_schema, n_nodes=25, seed=row.seed)
        )
        assert len(g.edges) == row.n_triples

    def test_single_repeat_is_rejected(self, fig2_schema):
        with pytest.raises(ValueError, match="repeats"):
            bench(fig2_schema, [10], ["refine"], repeats=1)

    def test_unknown_algorithm_is_rejected(self, fig2_schema):
        with pytest.raises(ValueError):
            bench(fig2_schema, [10], ["guess"], repeats=2)
