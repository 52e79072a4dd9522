import pytest

from shexval.graph import Graph
from shexval.rbe import Isect, normalize_product
from shexval.schema import parse_schema


def m_typing_leq(first, second):
    """Pointwise containment of set-valued typings (absent nodes are empty)."""
    return all(set(ts) <= set(second.get(n, ())) for n, ts in first.items())


def normal_form_isect(e1, e2):
    """Per-symbol intervals of the intersection of two interval-product
    languages; None when the intersection is empty.  A symbol missing on
    one side is constrained to zero occurrences there."""
    try:
        return normalize_product(Isect(e1, e2))
    except ValueError:
        raise ValueError(
            "operands are not built from interval symbols, unordered "
            "concatenation, and intersection"
        ) from None


@pytest.fixture
def g0():
    """Five nodes; n4 closes a cycle back into n1."""
    return Graph(
        [
            ("n0", "a", "n1"),
            ("n0", "b", "n2"),
            ("n1", "b", "n2"),
            ("n1", "a", "n3"),
            ("n2", "b", "n4"),
            ("n4", "c", "n1"),
        ]
    )


@pytest.fixture
def g1():
    """A diamond: both n1 and n2 reach n3 over c."""
    return Graph(
        [
            ("n0", "a", "n1"),
            ("n1", "b", "n2"),
            ("n1", "c", "n3"),
            ("n2", "c", "n3"),
        ]
    )


@pytest.fixture
def g2():
    """A chain with a self-loop on n1."""
    return Graph(
        [
            ("n0", "a", "n1"),
            ("n1", "c", "n2"),
            ("n1", "b", "n1"),
        ]
    )


S0_TEXT = """\
t0 -> a::t1 , b::t2
t1 -> (a::t1 | b::t2)*
t2 -> b::t2 | c::t1
"""

S1_TEXT = """\
t0 -> a::t1
t1 -> b::t2 , c::t3
t2 -> b::t2? , c::t3
t3 -> eps
"""

FIG2_TEXT = """\
# bug tracker shapes
BugReport -> descr::Str , reportedBy::User , reportedOn::Date , (reproducedBy::Employee , reproducedOn::Date)? , related::BugReport*
User -> name::Str , email::Str?
Employee -> (name::Str | first-name::Str , last-name::Str) , email::Str
"""

# Nondeterministic two-type schema: a node typed tc must keep an outgoing
# edge into another tc node, so tc-typed regions must close into cycles.
S_CYCLE_TEXT = """\
t0 -> (a::tc | a::t0)* , b::tc*
tc -> (a::tc+ | b::tc) , a::t0* , b::tc*
"""

# Set-cover selection gadget: the root hands each universe element to one
# candidate set; the chosen set node must be typed In, all other candidates
# Out, so a valid single-type assignment picks an exact cover.
EXACT_COVER_TEXT = """\
t0 -> 1::t1S1* , 1::t1S2* , 2::t2S2* , 2::t2S3* , 3::t3S1*
t1S1 -> S1::In , S2::Out
t1S2 -> S1::Out , S2::In
t2S2 -> S2::In , S3::Out
t2S3 -> S2::Out , S3::In
t3S1 -> S1::In
In -> eps
Out -> eps
"""

LAM0 = {"n0": "t0", "n1": "t1", "n2": "t2", "n3": "t1", "n4": "t2"}
LAM1 = {"n0": "t0", "n1": "t1", "n2": "t2", "n3": "t3"}
LAM2 = {
    "n0": frozenset({"t0"}),
    "n1": frozenset({"t1", "t2"}),
    "n2": frozenset({"t3"}),
}


@pytest.fixture
def s0():
    """Cyclic three-type schema; t1 may fan out over a and b without limit."""
    return parse_schema(S0_TEXT)


@pytest.fixture
def s1():
    """Acyclic four-type schema ending in the empty content model t3."""
    return parse_schema(S1_TEXT)


@pytest.fixture
def fig2_schema():
    """The bug-tracker schema; Str and Date default to empty content models."""
    return parse_schema(FIG2_TEXT)


@pytest.fixture
def fig1():
    """Two bug reports.

    emp1 is the reporter of bug2 and the reproducer of bug1, so it must act
    as both User and Employee; only multi-type validation accepts that.
    user1 has no email edge, which the User shape allows.
    """
    return Graph(
        [
            ("bug1", "related", "bug2"),
            ("bug2", "related", "bug1"),
            ("bug1", "reportedOn", "04/12/2012"),
            ("bug1", "descr", "Kaboom!"),
            ("bug2", "reportedOn", "02/11/2013"),
            ("bug2", "descr", "Bham!"),
            ("bug1", "reportedBy", "user1"),
            ("bug2", "reportedBy", "emp1"),
            ("user1", "name", "Mr. Smith"),
            ("emp1", "name", "Mrs. Smith"),
            ("emp1", "email", "eva@h.org"),
            ("bug1", "reproducedBy", "emp1"),
            ("bug1", "reproducedOn", "06/12/2012"),
        ]
    )


@pytest.fixture
def k3():
    """Complete directed triangle on three color nodes, every edge labeled a."""
    nodes = ("c0", "c1", "c2")
    return Graph([(u, "a", v) for u in nodes for v in nodes if u != v])


@pytest.fixture
def s_cycle():
    return parse_schema(S_CYCLE_TEXT)


@pytest.fixture
def exact_cover_schema():
    return parse_schema(EXACT_COVER_TEXT)


@pytest.fixture
def exact_cover_graph():
    """Universe {1,2,3} with candidate sets S1={1,3}, S2={1,2}, S3={2}.

    The only exact cover is {S1, S3}, so the only valid assignment routes
    element 1 to S1, element 2 to S3, and element 3 to S1.
    """
    return Graph(
        [
            ("r", "1", "u1"),
            ("r", "2", "u2"),
            ("r", "3", "u3"),
            ("u1", "S1", "S1"),
            ("u1", "S2", "S2"),
            ("u2", "S2", "S2"),
            ("u2", "S3", "S3"),
            ("u3", "S1", "S1"),
        ]
    )
