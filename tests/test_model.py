"""Domain types: validation rules, dissociation thresholds, the block assembler."""

import numpy as np
import pytest

from coulomb2e import matel3, matel4, model, solve
from coulomb2e.model import (MatBlock, SystemSpec, TwoBodyThreshold, NATURAL,
                             UNNATURAL, threshold_for, hminus_spec, ps2_spec)
from reference.elements import hughes_eckart_matrix


def test_three_body_spec_shape():
    s = hminus_spec(z=1.0)
    assert not s.is_four_body
    assert s.inv_masses == (0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SystemSpec(inv_masses=(0.0, 1.0), z_central=1.0)
    with pytest.raises(ValueError):
        SystemSpec(inv_masses=(0.0, -1.0, 1.0), z_central=1.0)
    with pytest.raises(ValueError):
        SystemSpec(inv_masses=(0.0, 1.0, 1.0), z_central=1.0, epsilon=2)
    with pytest.raises(ValueError):
        SystemSpec(inv_masses=(0.0, 1.0, 1.0), z_central=1.0, sector="bogus")
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SystemSpec(inv_masses=(bad, 1.0, 1.0), z_central=1.0)
    # an infinite center binding an infinitely heavy particle is unbounded
    for inv in ((0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.0)):
        with pytest.raises(ValueError, match="two infinite masses"):
            SystemSpec(inv_masses=inv, z_central=1.0)
    assert SystemSpec(inv_masses=(1.0, 0.0, 1.0), z_central=1.0).inv_masses[1] == 0
    for z in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            hminus_spec(z=z)
    for ratio in (0.0, -2.0, float("nan")):
        with pytest.raises(ValueError):
            hminus_spec(mass_ratio=ratio)


def test_four_body_spec_shape():
    s = ps2_spec()
    assert s.is_four_body
    with pytest.raises(ValueError):  # not neutral
        SystemSpec(inv_masses=(1.0,) * 4, z_central=None,
                   charges=(1.0, 1.0, 1.0, -1.0))
    with pytest.raises(ValueError):  # wrong count
        SystemSpec(inv_masses=(1.0,) * 3, z_central=None,
                   charges=(1.0, 1.0, -1.0, -1.0))


def test_exp_term_validation():
    # the searches check exponential terms by their pair sums
    assert solve._valid3([(1.0, 0.5, -0.3)], 1e-3)   # negative entry is fine
    assert not solve._valid3([(1.0, -1.5, 0.3)], 1e-3)   # pair sum a+b <= 0
    assert solve._four_groups("cc-break", (0.9, 0.2, 0.3, 0.8)) is not None
    assert solve._four_groups("cc-break", (0.5, -0.6, 0.05, 0.5)) is None


def test_threshold_infinite_center():
    thr = threshold_for(hminus_spec(z=1.0))
    assert thr.mu == 1.0
    assert thr.e_ground == -0.5
    assert thr.e_2p == -0.125
    thr2 = threshold_for(hminus_spec(z=2.0))
    assert thr2.e_ground == -2.0


def test_threshold_finite_center_reduced_mass():
    thr = threshold_for(hminus_spec(z=1.0, mass_ratio=1.0))
    assert thr.mu == pytest.approx(0.5)
    assert thr.e_ground == pytest.approx(-0.25)


def test_threshold_asymmetric_keeps_heavier_particle():
    # the center binds the heavier negative particle (larger reduced mass)
    s = SystemSpec(inv_masses=(0.0, 0.5, 2.0), z_central=1.0)
    thr = threshold_for(s)
    assert thr.mu == pytest.approx(2.0)
    assert thr.e_ground == pytest.approx(-1.0)


def test_threshold_four_body_channel_choice():
    thr = threshold_for(ps2_spec())
    assert thr.e_ground == pytest.approx(-0.5)
    # heavy(+)/light(-) pairing: both split choices must be compared
    s = SystemSpec(inv_masses=(0.1, 1.9, 0.1, 1.9), z_central=None,
                   charges=(1.0, 1.0, -1.0, -1.0))
    thr = threshold_for(s)
    # best split pairs heavy with heavy: mu = 1/(0.1+0.1) = 5
    assert thr.e_ground == pytest.approx(-0.5 * 5.0 - 0.5 / (1.9 + 1.9))


def test_e_relevant_sector_switch():
    thr = TwoBodyThreshold(mu=1.0, e_ground=-0.5, e_2p=-0.125, label="t")
    assert thr.e_relevant(NATURAL) == -0.5
    assert thr.e_relevant(UNNATURAL) == -0.125


def _assemble_per_pair(groups, pair):
    # the former assembler: one Python row per ordered pair, cell by cell
    m = len(groups)
    cell, ws, us, vs = zip(*[(i * m + j, w1 * w2, u, v)
                             for i in range(m) for j in range(i, m)
                             for w1, u in groups[i] for w2, v in groups[j]])
    r, c = np.divmod(np.arange(m * m), m)
    mirror = (np.minimum(r, c) * m + np.maximum(r, c)).reshape(m, m)
    return [np.bincount(cell, np.array(ws) * x, m * m)[mirror]
            for x in pair(np.array(us, dtype=float), np.array(vs, dtype=float))]


def _blocks():
    # (id, builder) over natural (both exchange signs, infinite and finite
    # mass, unsymmetrized), recoil, vector and both four-body blocks
    rng = np.random.default_rng(7)
    out = []
    for n in (1, 2, 3, 8):
        t = [tuple(rng.uniform((0.3, 0.1, -0.05), (2.5, 1.5, 0.3))) for _ in range(n)]
        for eps in (+1, -1):
            for ratio in (float("inf"), 7.3):
                s = hminus_spec(z=2.0, mass_ratio=ratio, epsilon=eps)
                out.append((f"natural-n{n}-eps{eps}-M{ratio}",
                            lambda t=t, s=s: matel3.natural_matblock(t, s)))
        s = hminus_spec(z=1.0, mass_ratio=7.3)
        out.append((f"unsymmetrized-n{n}",
                    lambda t=t, s=s: matel3.natural_matblock(t, s, False)))
        out.append((f"recoil-n{n}", lambda t=t, s=s: hughes_eckart_matrix(t, s)))
        for ratio in (float("inf"), 1.0):
            s = hminus_spec(z=1.0, mass_ratio=ratio, sector=UNNATURAL)
            out.append((f"vector-n{n}-M{ratio}",
                        lambda t=t, s=s: matel3.unnatural_matblock(t, s)))
    for mode, p in (("cc-break", (0.85, 0.15, 0.3, 0.6)),
                    ("identity-break", (0.85, 0.15))):
        s = solve._four_spec(mode, 1.7)
        out.append((mode, lambda m=mode, p=p, s=s:
                    matel4.assemble4(solve._four_groups(m, p), s)))
    return out


def _mats(b):
    return (b.n_mat, b.t_mat, b.v_mat) if isinstance(b, MatBlock) else (b,)


@pytest.mark.parametrize("build", [b for _, b in _blocks()],
                         ids=[i for i, _ in _blocks()])
def test_assemble_matches_the_per_pair_loop(build, monkeypatch):
    # the numpy pair layout sums every entry in the loop's u-major, v-minor
    # order, so every block is the same to the bit
    got = _mats(build())
    monkeypatch.setattr(matel3, "assemble", _assemble_per_pair)
    monkeypatch.setattr(matel4, "assemble", _assemble_per_pair)
    want = _mats(build())
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_layout_cache_is_bounded_and_misses_once_per_weight_pattern(monkeypatch):
    # the pair layout depends on the groups' weights alone: a whole
    # optimize_ion solve builds it at its first block and never again
    assert model._layout.cache_info().maxsize is not None
    for sector, build in ((NATURAL, "natural_matblock"),
                          (UNNATURAL, "unnatural_matblock")):
        model._layout.cache_clear()
        misses, orig = [], getattr(matel3, build)

        def counted(*a, **kw):
            out = orig(*a, **kw)
            misses.append(model._layout.cache_info().misses)
            return out

        monkeypatch.setattr(matel3, build, counted)
        solve.optimize_ion(hminus_spec(z=1.0, sector=sector), 2,
                           solve.MinimizerConfig(seed=0, restarts=1, max_iter=200))
        assert len(misses) > 200 and set(misses) == {1}
        assert model._layout.cache_info().currsize == 1
