"""Seeded benchmark inputs, each with the answer it is known to have.

Every input is text, as `shex validate` reads it: a schema, a graph in
the triple format and, for flooding, a pre-typing.  The expected answer
of each input follows from how it was built, never from running another
validation path:

* ``fig2``: graphs from ``generate_graph`` conform to the schema, and the
  returned roots reach every node, so every algorithm accepts, flooding
  from the roots types every node, and each root keeps its assigned type.
* ``chain``: ``v0 -a-> ... -a-> vN`` against ``t -> a::t``.  vN has no
  a-edge, so it fails ``t``, and the failure travels back to v0: every
  maximal type set is empty and flooding from v0 fails at vN.
* ``nondet``: a planted single typing on a closed part of the graph is
  valid there, so refinement keeps every planted pair.  Spoiler a-chains
  end in a b-edge into a sink; a sink cannot be ``tc`` and both rules
  send b-edges only to ``tc``, so every spoiler node loses every type.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from shexval.genbench import GenConfig, generate_graph
from shexval.graph import format_graph
from shexval.schema import parse_schema

# The bug-tracker schema of the paper's running example.
FIG2_TEXT = """\
# bug tracker shapes
BugReport -> descr::Str , reportedBy::User , reportedOn::Date , (reproducedBy::Employee , reproducedOn::Date)? , related::BugReport*
User -> name::Str , email::Str?
Employee -> (name::Str | first-name::Str , last-name::Str) , email::Str
"""

CHAIN_TEXT = "t -> a::t\n"

# S_CYCLE with two star groups over c and d: nondeterministic (a-edges
# may lead to tc or t0) and not single-occurrence (tc uses b::tc twice).
NONDET_TEXT = """\
t0 -> (a::tc | a::t0)* , b::tc* , (c::t0 , d::t0)* , (c::tc , d::tc)*
tc -> (a::tc+ | b::tc) , a::t0* , b::tc* , (c::tc | d::t0)*
"""


@dataclass(frozen=True)
class Expect:
    """The known answer of an input.

    ``valid`` is the verdict of every operation.  ``kept`` are (node,
    type) pairs the maximal typing contains, ``empty`` nodes whose maximal
    type set is empty, ``reached`` nodes flooding must type, and
    ``flood_fails_at`` the node where flooding from the pre-typing fails.
    """

    valid: bool
    kept: frozenset[tuple[str, str]] = frozenset()
    empty: frozenset[str] = frozenset()
    reached: frozenset[str] = frozenset()
    flood_fails_at: str | None = None


@dataclass(frozen=True)
class Input:
    schema_text: str
    graph_text: str
    expect: Expect
    pre: dict[str, frozenset[str]] = field(default_factory=dict)
    sizes: dict[str, int] = field(default_factory=dict)


def _shuffled_text(edges, rng: random.Random) -> str:
    lines = ["\t".join(e) for e in edges]
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def fig2_input(seed: int, n_nodes: int) -> Input:
    """A generated bug-tracker graph with ``n_nodes`` shape nodes."""
    g, roots = generate_graph(GenConfig(parse_schema(FIG2_TEXT), n_nodes, seed=seed))
    pre = {r: frozenset(ts) for r, ts in roots.items()}
    return Input(
        schema_text=FIG2_TEXT,
        graph_text=format_graph(g),
        expect=Expect(
            valid=True,
            kept=frozenset((r, t) for r, ts in pre.items() for t in ts),
            reached=g.nodes,
        ),
        pre=pre,
        sizes={"shape_nodes": n_nodes, "nodes": len(g.nodes),
               "edges": len(g.edges), "roots": len(pre)},
    )


def chain_input(seed: int, length: int) -> Input:
    """The chain v0 -> ... -> v{length} that fails from its tail."""
    nodes = [f"v{i}" for i in range(length + 1)]
    edges = [(nodes[i], "a", nodes[i + 1]) for i in range(length)]
    return Input(
        schema_text=CHAIN_TEXT,
        graph_text=_shuffled_text(edges, random.Random(seed)),
        expect=Expect(valid=False, empty=frozenset(nodes), flood_fails_at=nodes[-1]),
        pre={nodes[0]: frozenset({"t"})},
        sizes={"nodes": len(nodes), "edges": len(edges)},
    )


# Labels a planted node of each type may use, with the target types its
# rule allows under each label (first-group obligations handled apart).
_T0_TARGETS = {"a": ("t0", "tc"), "b": ("tc",)}
_TC_TARGETS = {"a": ("t0", "tc"), "b": ("tc",), "c": ("tc",), "d": ("t0",)}


# Spoiler chains hold about 5% of the nodes; chains of up to 7 nodes make
# refinement take 9 rounds.
SPOILER_SHARE = 0.05
MAX_SPOILER_LEN = 7


def nondet_input(seed: int, n_nodes: int) -> Input:
    """``n_nodes`` nodes of out-degree 1-4 over labels a-d (sinks: 0)."""
    rng = random.Random(seed)
    chains: list[int] = []
    while sum(chains) < n_nodes * SPOILER_SHARE:
        chains.append(rng.randint(1, MAX_SPOILER_LEN))
    n_planted = n_nodes - sum(chains)
    planted_nodes = [f"p{i}" for i in range(n_planted)]
    # The first len(chains) planted nodes are the sinks: t0 with no edges.
    planted = {
        p: "t0" if i < len(chains) else rng.choice(("t0", "tc"))
        for i, p in enumerate(planted_nodes)
    }
    pool = {t: [p for p in planted_nodes if planted[p] == t] for t in ("t0", "tc")}
    edges: list[tuple[str, str, str]] = []

    for p in planted_nodes[len(chains):]:
        taken: set[tuple[str, str]] = set()

        def add(label: str, target_type: str) -> None:
            # Set semantics: one edge per (label, target).
            while True:
                target = rng.choice(pool[target_type])
                if (label, target) not in taken:
                    taken.add((label, target))
                    edges.append((p, label, target))
                    return

        degree = rng.randint(1, 4)
        if planted[p] == "t0":
            while degree > 0:
                if degree >= 2 and rng.random() < 0.25:
                    t = rng.choice(("t0", "tc"))
                    add("c", t)
                    add("d", t)
                    degree -= 2
                else:
                    label = rng.choice(("a", "b"))
                    add(label, rng.choice(_T0_TARGETS[label]))
                    degree -= 1
        else:
            add(rng.choice(("a", "b")), "tc")
            for _ in range(degree - 1):
                label = rng.choice("abcd")
                add(label, rng.choice(_TC_TARGETS[label]))

    spoilers: list[str] = []
    for j, length in enumerate(chains):
        chain = [f"x{j}_{k}" for k in range(length)]
        spoilers.extend(chain)
        edges.append((chain[0], "b", planted_nodes[j]))
        edges.extend((chain[k], "a", chain[k - 1]) for k in range(1, length))
        # Extra edges into the planted part vary the spoilers' neighborhoods.
        for x in chain:
            targets = {(rng.choice("abcd"), rng.choice(planted_nodes))
                       for _ in range(rng.randint(0, 2))}
            edges.extend((x, label, target) for label, target in sorted(targets))

    return Input(
        schema_text=NONDET_TEXT,
        graph_text=_shuffled_text(edges, rng),
        expect=Expect(
            valid=False,
            kept=frozenset(planted.items()),
            empty=frozenset(spoilers),
        ),
        sizes={"nodes": n_nodes, "edges": len(edges), "planted": n_planted,
               "spoilers": len(spoilers)},
    )
