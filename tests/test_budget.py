"""One node budget for every search: `errors.NodeBudget`.

Every search reads the default budget from `errors.DEFAULT_NODE_BUDGET`
when it starts and names itself when it runs out, and no module but
`errors` raises ResourceLimitError on its own.
"""

import re
from pathlib import Path

import pytest

from antictx import errors
from antictx.antidist import scenario_antidistinguishable
from antictx.antiset import find_strong_antisets
from antictx.ensembles import FamilySpec, generate_scenario, generate_states
from antictx.errors import NodeBudget, ResourceLimitError
from antictx.quantum import scenario_from_states
from antictx.valuefns import enumerate_value_functions

SRC = Path(errors.__file__).parent


def _yu_oh():
    return generate_states(FamilySpec("yu_oh_rays")).union(generate_states(FamilySpec("yu_oh_principal")))


@pytest.mark.parametrize(
    "search, run",
    [
        ("value-function search", lambda: enumerate_value_functions(generate_scenario("klyachko"))),
        (
            "antidistinguishability search",
            lambda: scenario_antidistinguishable(generate_scenario("antidist_example"), ["a1", "a2", "a3"]),
        ),
        ("clique search", lambda: find_strong_antisets(_yu_oh(), ["a1", "a2", "a3", "a4"], ["c1", "c2", "c3"])),
        ("clique search", lambda: scenario_from_states(_yu_oh())),
    ],
    ids=["enumerate", "antidistinguishable", "find-antisets", "scenario-from-states"],
)
def test_every_search_obeys_the_default_budget(search, run, monkeypatch):
    run()  # runs to the end under the real default
    monkeypatch.setattr(errors, "DEFAULT_NODE_BUDGET", 2)
    with pytest.raises(ResourceLimitError, match=rf"^{search} exceeded 2 nodes$"):
        run()


def test_budget_raises_on_the_charge_past_its_limit():
    budget = NodeBudget(3, "test search")
    budget.charge(2)
    budget.charge(1)
    with pytest.raises(ResourceLimitError, match="^test search exceeded 3 nodes$"):
        budget.charge(1)


def test_only_the_budget_raises_resource_limit_errors():
    made = re.compile(r"(?<!class )ResourceLimitError\(")  # a call, not the class statement
    calls = {p.name: len(made.findall(p.read_text())) for p in SRC.glob("*.py")}
    assert {name: n for name, n in calls.items() if n} == {"errors.py": 1}
