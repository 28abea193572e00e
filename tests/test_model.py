"""Domain types: validation rules, dissociation thresholds, the block assembler."""

import numpy as np
import pytest

from coulomb2e import matel3, matel4, model, solve
from coulomb2e.model import (MatBlock, SystemSpec, TwoBodyThreshold, NATURAL,
                             UNNATURAL, threshold_for, hminus_spec, ps2_spec)
from reference import elements


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
    # a four-body spec is its four inverse masses, positives 1, 2 first
    s = ps2_spec()
    assert s.is_four_body
    for inv in ((1.0,) * 3, (1.0,) * 5):
        with pytest.raises(ValueError, match="4 inverse masses"):
            SystemSpec(inv_masses=inv)
    # an atom of a positive and a negative of infinite mass is unbounded;
    # two infinitely heavy particles of one sign are not an atom
    for inv in ((0.0, 1.0, 0.0, 1.0), (1.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0)):
        with pytest.raises(ValueError, match="two infinite masses"):
            SystemSpec(inv_masses=inv)
    assert SystemSpec(inv_masses=(0.0, 0.0, 1.0, 1.0)).is_four_body
    assert SystemSpec(inv_masses=(1.0, 1.0, 0.0, 0.0)).is_four_body


@pytest.mark.parametrize("kw", [{"epsilon": -1}, {"sector": UNNATURAL}])
def test_four_body_spec_refuses_what_its_builders_ignore(kw):
    # the four-body basis groups carry their own symmetrization and have no
    # vector sector: an exchange sign or a 1+ sector would be ignored
    with pytest.raises(ValueError, match="natural with epsilon"):
        SystemSpec(inv_masses=(1.0,) * 4, **kw)


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
    # positives 1, 2 pair with negatives 3, 4 or 4, 3: the lower sum wins
    # and names its atoms; a tie keeps (13)(24)
    thr = threshold_for(ps2_spec())
    assert thr.e_ground == pytest.approx(-0.5)
    assert thr.label == "atoms (13)(24)"
    # heavy(+)/light(-) pairing: both split choices must be compared
    for inv, label in (((0.1, 1.9, 0.1, 1.9), "atoms (13)(24)"),
                       ((0.1, 1.9, 1.9, 0.1), "atoms (14)(23)")):
        thr = threshold_for(SystemSpec(inv_masses=inv))
        # best split pairs heavy with heavy: mu = 1/(0.1+0.1) = 5
        assert thr.e_ground == pytest.approx(-0.5 * 5.0 - 0.5 / (1.9 + 1.9))
        assert thr.mu == pytest.approx(5.0)
        assert thr.label == label


def test_verdict_margin_and_stability():
    thr = TwoBodyThreshold(mu=1.0, e_ground=-0.5, e_2p=-0.125, label="t")
    assert thr.verdict(-0.55) == (pytest.approx(0.1), True)
    assert thr.verdict(-0.45) == (pytest.approx(-0.1), False)
    # the 1+ sector judges against the 2p atom
    assert thr.verdict(-0.25, UNNATURAL) == (pytest.approx(1.0), True)
    assert thr.verdict(-0.25, NATURAL)[1] is False
    # exactly STABILITY_TOL below the threshold is round-off, not binding
    for sector, e_thr in ((NATURAL, -0.5), (UNNATURAL, -0.125)):
        margin, stable = thr.verdict(e_thr - model.STABILITY_TOL, sector)
        assert stable is False and margin > 0
        assert thr.verdict(e_thr - 2 * model.STABILITY_TOL, sector)[1] is True


def test_e_relevant_sector_switch():
    thr = TwoBodyThreshold(mu=1.0, e_ground=-0.5, e_2p=-0.125, label="t")
    assert thr.e_relevant(NATURAL) == -0.5
    assert thr.e_relevant(UNNATURAL) == -0.125


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
        out.append((f"recoil-n{n}", lambda t=t, s=s: model.block(
            np.array(t), matel3._EXCHANGE[s.epsilon],
            lambda u, v: (elements.he_cross(u, v),) * 3).n_mat))
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


def _per_pair_kernel(n, width, maps, pair):
    # model.kernel as the per-pair loop over the basis vectors' term groups
    def run(x):
        rows = np.asarray(x).reshape(n, width)
        return np.array(elements.assemble_per_pair(
            [[(w, tuple(row[list(c)])) for c, w in maps] for row in rows], pair))
    return run


@pytest.mark.parametrize("build", [b for _, b in _blocks()],
                         ids=[i for i, _ in _blocks()])
def test_assemble_matches_the_per_pair_loop(build, monkeypatch):
    # the one gather and its one bincount sum every entry in the loop's
    # u-major, v-minor order, so every block is the same to the bit: the
    # three-body blocks (and the recoil kernel through the same gather)
    # against the per-pair loop with the same kernel (matel3.kernel3 and
    # model.block both build on model.kernel), the four-body blocks against
    # the loop over their groups
    got = _mats(build())
    monkeypatch.setattr(matel3, "kernel", _per_pair_kernel)
    monkeypatch.setattr(model, "kernel", _per_pair_kernel)
    monkeypatch.setattr(matel4, "assemble4", lambda groups, spec: MatBlock(
        *elements.assemble_per_pair(
            groups, lambda U, V: matel4._pair_ntv(U, V, spec.inv_masses))))
    want = _mats(build())
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_gather_matches_the_exchange_groups():
    # the cached gather gives the blocks of the per-pair loop over the
    # exchange groups with the same kernel, bit for bit: both signs, unsymmetrized,
    # the vector sector, infinite and finite masses, n = 1, 2, 3, 8, array
    # and tuple terms
    rng = np.random.default_rng(22)
    for n in (1, 2, 3, 8):
        for _ in range(3):
            x = rng.uniform((0.3, 0.1, -0.05), (2.5, 1.5, 0.3), (n, 3))
            for ratio in (float("inf"), 1.0, 7.3):
                cases = [(matel3.unnatural_matblock, matel3._UN_COLS, matel3._un_table,
                          hminus_spec(z=1.0, mass_ratio=ratio, sector=UNNATURAL), +1, ())]
                nat = (matel3.natural_matblock, matel3._NTV_CELLS, matel3._ntv_table)
                for eps in (+1, -1):
                    s = hminus_spec(z=2.0, mass_ratio=ratio, epsilon=eps)
                    cases.append((*nat, s, eps, ()))
                cases.append((*nat, hminus_spec(z=1.0, mass_ratio=ratio), None, (False,)))
                for build, cols, table, s, eps, extra in cases:
                    W = table(s.z_central, s.inv_masses)
                    want = elements.assemble_per_pair(
                        elements.exchange_groups(x.tolist(), eps),
                        lambda u, v: model.contract(u, v, matel3._g3_cells(u + v, cols), W))
                    for terms in (x, [tuple(t) for t in x.tolist()]):
                        got = _mats(build(terms, s, *extra))
                        for g, w in zip(got, want, strict=True):
                            assert np.array_equal(g, w)


@pytest.mark.parametrize("terms", [[(1, .5, .1, .2)], [], [(1, .5)], [1, .5, .1],
                                   np.ones((2, 4))])
def test_block_builders_reject_terms_that_are_not_n_by_3(terms):
    # a flat gather would read an (n, 4) array as other terms; refuse it
    with pytest.raises(ValueError, match=r"\(n, 3\) array"):
        matel3.natural_matblock(terms, hminus_spec(z=1.0))
    with pytest.raises(ValueError, match=r"\(n, 3\) array"):
        matel3.unnatural_matblock(terms, hminus_spec(z=1.0, sector=UNNATURAL))


@pytest.mark.parametrize("build, spec, match", [
    (lambda s: matel3.natural_matblock([(1.0, 0.5, 0.1)], s),
     hminus_spec(z=1.0, sector=UNNATURAL), "three-body natural-sector"),
    (lambda s: matel3.natural_matblock([(1.0, 0.5, 0.1)], s), ps2_spec(),
     "three-body natural-sector"),
    (lambda s: matel4.assemble4([matel4.symmetrized_group((0.9, 0.2, 0.3, 0.8))], s),
     hminus_spec(z=1.0), "four-body spec")], ids=["natural-1+", "natural-4body",
                                                   "assemble4-3body"])
def test_block_builders_refuse_a_spec_they_cannot_read(build, spec, match):
    # a 1+ spec would get a natural block, a four-body one a failed unpack,
    # and assemble4 would read a three-body spec's three inverse masses
    with pytest.raises(ValueError, match=match):
        build(spec)


def test_layout_cache_is_bounded_and_misses_once_per_weight_pattern(monkeypatch):
    # the one gather depends on the basis size, its width and its column
    # maps alone: a whole optimize_ion or scan_mass4 solve builds it at its
    # first block and never again (three-body both sectors, four-body both
    # breaking modes).  A three-body solve looks it up once per kernel
    # (`matel3.kernel3`): for its search's 200 evaluations, then for the
    # result's block; a four-body solve at every block, from the one entry
    info = model.gather.cache_info
    assert info().maxsize is not None
    cfg = solve.MinimizerConfig(seed=0, restarts=1, max_iter=200)
    runs = [(matel3, "kernel3", 1, lambda s=s: solve.optimize_ion(hminus_spec(
                z=1.0, sector=s), 2, cfg).meta["nfev"] == 200) for s in (NATURAL, UNNATURAL)]
    runs += [(matel4, "assemble4", 100, lambda m=m: solve.scan_mass4([1.0], m, cfg))
             for m in ("cc-break", "identity-break")]
    for owner, build, at_least, run in runs:
        model.gather.cache_clear()
        misses, orig = [], getattr(owner, build)

        def counted(*a, **kw):
            out = orig(*a, **kw)
            misses.append(info().misses)
            return out

        matel4._member_maps.cache_clear()
        with monkeypatch.context() as mp:
            mp.setattr(owner, build, counted)
            assert run()
        assert len(misses) > at_least and set(misses) == {1}
        assert info().currsize == 1 and info().hits == len(misses) - 1
        if owner is matel4:     # and one map tuple per group weight pattern
            assert matel4._member_maps.cache_info().misses == 1


@pytest.mark.parametrize("width, maps", [
    (3, (((0, 1, 3), 1.0),)),                      # a column past the row
    (3, (((0, 1, 2), 1.0), ((-1, 0, 2), 1.0))),    # a negative column
    (4, (((0, 1, 2), 1.0), ((1, 0), 1.0))),        # maps of unequal length
    (3, ()),                                       # no map at all
])
def test_gather_rejects_bad_column_maps(width, maps):
    # a flat gather would silently read a neighbouring term; refuse it
    with pytest.raises(ValueError, match="map"):
        model.gather(2, width, maps)
    with pytest.raises(ValueError, match="map"):
        model.block(np.ones((2, width)), maps, lambda u, v: (u[:, 0],) * 3)
