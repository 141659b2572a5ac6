"""Graph statistics (Table 2 substrate)."""
import pytest

from repro.graphs import generators as gen
from repro.graphs import suite
from repro.graphs.stats import diameter_lower_bound, graph_stats


@pytest.mark.parametrize("n", [2, 5, 12])
def test_diameter_path(n):
    assert diameter_lower_bound(gen.path_graph(n)) == n - 1


def test_diameter_cycle():
    assert diameter_lower_bound(gen.cycle(10)) == 5


def test_diameter_star():
    assert diameter_lower_bound(gen.star(20)) == 2


def test_diameter_grid():
    assert diameter_lower_bound(gen.grid(4, 6)) == 3 + 5


def test_diameter_complete():
    assert diameter_lower_bound(gen.complete(6)) == 1


def test_diameter_on_largest_component():
    g = gen.disjoint_union("m", [gen.complete(4), gen.path_graph(9)])
    # largest component is the 9-path
    assert diameter_lower_bound(g) == 8


def test_stats_fields():
    s = graph_stats(suite.get("CW", "test"))
    assert set(s) == {"graph", "n", "m", "diameter_lb", "num_components", "largest_component"}


def test_suite_shapes_match_paper_structure():
    """Structural stand-in checks: the properties driving the paper's results."""
    ro = graph_stats(suite.get("RO", "test"))
    co = graph_stats(suite.get("CO", "test"))
    cw = graph_stats(suite.get("CW", "test"))
    # road: high diameter, single component
    assert ro["num_components"] == 1
    assert ro["diameter_lb"] > 5 * co["diameter_lb"]
    # orkut: single massive low-diameter component
    assert co["num_components"] == 1
    # web crawl: multiple components, massive largest
    assert cw["num_components"] > 1
    assert cw["largest_component"] > 0.8 * cw["n"]


@pytest.mark.parametrize("name", suite.GRAPH_NAMES)
def test_suite_massive_component(name):
    s = graph_stats(suite.get(name, "test"))
    assert s["largest_component"] > 0.5 * s["n"]
