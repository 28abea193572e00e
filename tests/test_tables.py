"""Tables I and II: the trial-family dispatch and the row verdicts."""

import pytest

from coulomb2e import tables
from coulomb2e.solve import MinimizerConfig

CFG = MinimizerConfig(restarts=1, max_iter=400)


@pytest.mark.parametrize("family, epsilon, k", [
    ("a=b c=0", -1, 0),          # a = b vanishes when antisymmetrized
    ("a=b c>0", -1, 0),
    ("a!=b c=0", +1, 1),         # only N-term bases have excited states
    ("N=two", +1, 0),
    ("a<b c=0", +1, 0),
])
def test_family_energy_refuses_what_it_cannot_compute(family, epsilon, k):
    with pytest.raises(ValueError):
        tables.family_energy(family, 1.0, epsilon, k, CFG)


def test_closed_form_families_and_their_ranges():
    e, ranges = tables.family_energy("a=b=Z c=0", 2.0, +1, 0, CFG)
    assert (e, ranges) == (-2.75, (2.0, 2.0))
    e, ranges = tables.family_energy("a=b c=0", 2.0, +1, 0, CFG)
    assert e == pytest.approx(-(27 / 16) ** 2) and ranges == (27 / 16, 27 / 16)


def test_table2_rows_carry_their_verdicts():
    rows = tables.table2(CFG, "exact") + tables.table2(CFG, "a=b=Z")
    assert [r[-1] for r in rows] == ["not-computed"] * 4 + [True, True]
    assert rows[-1] == ["a=b=Z c=0", "He", -2.75, -2.75, 0.0, True]
    assert tables.table1(CFG, "Z=5") == [] and tables.table2(CFG, "N=9") == []
