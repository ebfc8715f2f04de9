"""The one redraw loop of every Monte-Carlo route: per-sample substreams,
blocks of samples evaluated at once, redraws from the same generator, and a
quota that can run out."""

from dataclasses import replace

import numpy as np
import pytest

from lkpolar import germ, lkmeasure, polar
from lkpolar.geomkit import (
    BLOCK,
    MAX_REDRAWS,
    DegenerateDirectionError,
    RandomSource,
    draw_grassmannian,
    grassmannian_bases,
    per_sample_values,
)
from lkpolar.plstrata import DegenerateSliceError
from lkpolar.smoothshape import DegenerateHeightError, HeightCriticalPoints


def _normal(gen):
    return gen.standard_normal()


def test_samples_draw_from_their_substreams_and_redraw_from_the_same_generator():
    rng = RandomSource(5, 2)

    def values(_, draws):
        x = np.array(draws)
        return x, x < 0.0

    def expected(i):
        gen = rng.substream(i).generator()
        while (x := gen.standard_normal()) < 0.0:
            pass
        return x

    assert per_sample_values(8, rng, _normal, values, "test") == [expected(i) for i in range(8)]


def test_other_errors_pass_through():
    def values(samples, draws):
        raise KeyError(samples[0])

    with pytest.raises(KeyError):
        per_sample_values(2, RandomSource(0), _normal, values, "test")


def test_tuple_draws_arrive_stacked_per_component():
    # a draw of (matrix, vector, float) reaches values as three stacks, on
    # the first draws and on the redraws alike
    rng = RandomSource(12, 3)
    seen = []

    def draw(gen):
        return gen.standard_normal((3, 2)), gen.standard_normal(4), gen.uniform()

    def values(samples, draws):
        seen.append((list(samples), draws))
        return draws[2], draws[2] < 0.3

    got = per_sample_values(BLOCK + 5, rng, draw, values, "test")
    gens = {}  # a copy of each sample's generator, to replay its draws in order
    for samples, draws in seen:
        assert isinstance(draws, tuple)
        assert [part.shape for part in draws] == [(len(samples), 3, 2), (len(samples), 4),
                                                  (len(samples),)]
        for j, i in enumerate(samples):
            G, u, t = draw(gens.setdefault(i, rng.substream(i).generator()))
            assert np.array_equal(G, draws[0][j]) and np.array_equal(u, draws[1][j])
            assert t == draws[2][j]
    assert len(seen) > 2 and all(t >= 0.3 for t in got)


def test_a_redraw_restacks_only_the_flagged_samples():
    rng = RandomSource(13)
    calls = []
    seen = set()

    def values(samples, draws):
        calls.append((list(samples), draws.copy()))
        flagged = [i % 3 == 0 and i not in seen for i in samples]  # on the first draw only
        seen.update(samples)
        return draws, np.array(flagged)

    got = per_sample_values(BLOCK + 4, rng, _normal, values, "test")
    # first draws of the two blocks, then the flagged samples of each alone
    assert [samples for samples, _ in calls] == [
        list(range(BLOCK)), [i for i in range(BLOCK) if i % 3 == 0],
        list(range(BLOCK, BLOCK + 4)), [i for i in range(BLOCK, BLOCK + 4) if i % 3 == 0]]
    for samples, draws in calls:
        assert draws.shape == (len(samples),)
    for i in calls[1][0]:
        gen = rng.substream(i).generator()
        gen.standard_normal()
        assert got[i] == gen.standard_normal()


def test_values_do_not_depend_on_the_block():
    # about one draw in fifteen is flagged and redrawn, in every block
    rng = RandomSource(8, 1)

    def values(samples, draws):
        x = np.array(draws)
        return 2.0 * x + np.array(samples), x < -1.5

    full = per_sample_values(3 * BLOCK - 1, rng, _normal, values, "test")
    for n in (1, BLOCK, BLOCK + 1, 3 * BLOCK - 1):
        assert per_sample_values(n, rng, _normal, values, "test") == full[:n]


def test_every_other_attempt_flagged_takes_the_second_draw():
    rng = RandomSource(9)
    attempts: dict = {}

    def values(samples, draws):
        for i in samples:
            attempts[i] = attempts.get(i, 0) + 1
        return np.array(draws), np.array([attempts[i] % 2 == 1 for i in samples])

    def second(i):
        gen = rng.substream(i).generator()
        gen.standard_normal()
        return gen.standard_normal()

    n = BLOCK + 3
    assert per_sample_values(n, rng, _normal, values, "test") == [second(i) for i in range(n)]
    assert set(attempts.values()) == {2}


def _flag_all(*args):
    # a stacked step: every plane, direction or flat of the stack (its last
    # argument) is degenerate
    return np.zeros(len(args[-1])), np.ones(len(args[-1]), dtype=bool)


def _no_cell_values(X, images, rows, bases):
    # a stacked alpha step that flags every plane of the stack
    return np.zeros((len(bases), len(rows))), np.ones(len(bases), dtype=bool)


def _no_separating_height(K, V):
    # a stacked Morse pass that flags every direction of the stack
    return np.zeros((len(V), len(K.vertices)), dtype=int), np.ones(len(V), dtype=bool)


def _no_morse_height(S, V, scale=1.0):
    # a stacked Newton solve that flags every direction of the stack
    V = np.atleast_2d(V)
    return HeightCriticalPoints(
        direction=np.zeros(0, dtype=int), params=np.zeros((0, S.dim)),
        points=np.zeros((0, V.shape[1])), hessian_eigenvalues=np.zeros((0, S.dim)),
        degenerate=np.ones(len(V), dtype=bool))


# route name, call, (module, evaluated step, stand-in that always rejects,
# error the route retries on), (module, sampler called once per draw)
ROUTES = {
    "polar_length": (
        lambda: polar.polar_length(lkmeasure.shape_from_name("cube"), 1, 3, RandomSource(1)),
        (polar, "_pl_cell_values_many", _no_cell_values, DegenerateDirectionError),
        (polar, "draw_grassmannian")),
    "exchange_lambda0": (
        lambda: lkmeasure.exchange_lambda0(lkmeasure.shape_from_name("cube"), 3, RandomSource(2)),
        (lkmeasure, "pl_morse_indices_many", _no_separating_height, DegenerateDirectionError),
        (lkmeasure, "sample_unit_sphere")),
    "smooth exchange_lambda0": (
        lambda: lkmeasure.exchange_lambda0(lkmeasure.shape_from_name("sphere:1"), 3,
                                           RandomSource(10)),
        (lkmeasure, "height_critical_points_many", _no_morse_height, DegenerateHeightError),
        (lkmeasure, "sample_unit_sphere")),
    "smooth polar_length q=0": (
        lambda: polar.polar_length(lkmeasure.shape_from_name("sphere:1"), 0, 3, RandomSource(11)),
        (polar, "height_critical_points_many", _no_morse_height, DegenerateHeightError),
        (polar, "draw_grassmannian")),
    "kinematic_check": (
        lambda: lkmeasure.kinematic_check(lkmeasure.shape_from_name("ball:1"), 1, 3,
                                          RandomSource(3)),
        (lkmeasure, "_round_slices", _flag_all, DegenerateSliceError),
        (lkmeasure, "draw_affine_flat")),
    "PL kinematic_check": (
        lambda: lkmeasure.kinematic_check(lkmeasure.shape_from_name("cube"), 1, 3,
                                          RandomSource(3)),
        (lkmeasure, "slice_chi_many", _flag_all, DegenerateSliceError),
        (lkmeasure, "draw_affine_flat")),
    "sigma_invariant": (
        lambda: germ.sigma_invariant(germ.germ_from_name("rays:3"), 1, 3, RandomSource(4)),
        (germ, "_slice_chi_stabilized_many", _flag_all, DegenerateSliceError),
        (germ, "draw_grassmannian")),
    "local_polar_length": (
        lambda: germ.local_polar_length(germ.germ_from_name("rays:3"), 0, 3, RandomSource(5)),
        (germ, "_pl_local_polar_many", _flag_all, DegenerateDirectionError),
        (germ, "draw_grassmannian")),
}


@pytest.mark.parametrize("route", list(ROUTES))
def test_every_quota_can_run_out(route, monkeypatch):
    call, (home, step, stand_in, err), (sampler_home, sampler) = ROUTES[route]
    monkeypatch.setattr(home, step, stand_in)
    gens = []  # the generator of every draw, in draw order
    draw = getattr(sampler_home, sampler)
    monkeypatch.setattr(sampler_home, sampler,
                        lambda *args: gens.append(args[-1]) or draw(*args))
    with pytest.raises(RuntimeError, match="resample quota.* at sample 0") as info:
        call()
    assert not isinstance(info.value, err)  # the quota, not the retried error
    # all of them for the first sample
    assert sum(gen is gens[0] for gen in gens) == MAX_REDRAWS


def _is_first(basis, first):
    return any(np.array_equal(basis, F) for F in first)


def _flag_alpha(monkeypatch, first):
    # PL planes: the alpha step of the chunk flags a first plane
    values = polar._pl_cell_values_many

    def step(X, images, rows, bases):
        vals, flagged = values(X, images, rows, bases)
        return vals, flagged | [_is_first(B, first) for B in bases]

    monkeypatch.setattr(polar, "_pl_cell_values_many", step)


def _flag_wall(monkeypatch, first):
    # smooth lines: the stacked valuation of a stratum's critical points
    # puts a point of a first line on a wall
    sums = polar._point_sums

    def step(X, S, bases, pieces):
        vals, errors = sums(X, S, bases, pieces)
        return vals, [DegenerateDirectionError("on the wall") if _is_first(B, first) else error
                      for B, error in zip(bases, errors)]

    monkeypatch.setattr(polar, "_point_sums", step)


def _flag_fold(monkeypatch, first):
    # smooth planes: the stacked genericity checks find a fold violation on a
    # first plane
    check = polar._genericity_many

    def step(X, bases, pieces, grids):
        return [replace(report, fold_violations=[("test", 0.0)]) if _is_first(B, first) else report
                for B, report in zip(bases, check(X, bases, pieces, grids))]

    monkeypatch.setattr(polar, "_genericity_many", step)


# route name -> shape, q, flagging patch, the reason it gives
LEDGER_ROUTES = {
    "pl-planes": ("cube", 1, _flag_alpha, "alpha"),
    "smooth-lines": ("sphere:1", 0, _flag_wall, "alpha"),
    "smooth-planes": ("disk:1", 1, _flag_fold, "fold"),
}


@pytest.mark.parametrize("route", list(LEDGER_ROUTES))
def test_rejected_planes_are_counted_and_kept(route, monkeypatch):
    # the first plane of every sample is flagged, the second is used
    name, q, flag, reason = LEDGER_ROUTES[route]
    first = []  # the basis of the first plane drawn from each generator
    seen = set()

    def tagged(n, k, gen):
        G = draw_grassmannian(n, k, gen)
        if id(gen) not in seen:
            seen.add(id(gen))
            first.append(grassmannian_bases(G[None])[0][0])  # a lone QR has the stacked bits
        return G

    monkeypatch.setattr(polar, "draw_grassmannian", tagged)
    flag(monkeypatch, first)
    res = polar.polar_length(lkmeasure.shape_from_name(name), q, 4, RandomSource(7),
                             keep_rows=True)
    assert (res.n_rejected, res.reject_reasons) == (4, {reason: 4})
    # sample then attempt, although a block evaluates its redraws last
    assert [(i, why) for i, _, _, why in res.per_plane] == [
        (i, why) for i in range(4) for why in (reason, "")]
    # a rejected plane keeps no parts, a used one its strata or q-cells
    assert all(bool(parts) != bool(why) for _, _, parts, why in res.per_plane)


@pytest.mark.parametrize("name, q", [("cube", 1), ("sphere:1", 0), ("disk:1", 1)])
def test_a_draw_of_deficient_rank_is_redrawn_outside_the_ledger(name, q, monkeypatch):
    # the first draw of every sample is the zero matrix: no plane, so no
    # rejection; the sample takes its generator's next draw
    X = lkmeasure.shape_from_name(name)
    seen = set()

    def zero_first(n, k, gen):
        G = draw_grassmannian(n, k, gen)
        if id(gen) not in seen:
            seen.add(id(gen))
            return np.zeros_like(G)
        return G

    def skip_first(n, k, gen):
        if id(gen) not in seen:
            seen.add(id(gen))
            draw_grassmannian(n, k, gen)
        return draw_grassmannian(n, k, gen)

    monkeypatch.setattr(polar, "draw_grassmannian", zero_first)
    got = polar.polar_length(X, q, 5, RandomSource(14, q), keep_rows=True)
    seen.clear()
    monkeypatch.setattr(polar, "draw_grassmannian", skip_first)
    want = polar.polar_length(X, q, 5, RandomSource(14, q), keep_rows=True)
    assert got.estimate == want.estimate
    assert (got.n_rejected, got.reject_reasons) == (want.n_rejected, want.reject_reasons)
    assert [(i, b.tobytes(), why) for i, b, _, why in got.per_plane] == [
        (i, b.tobytes(), why) for i, b, _, why in want.per_plane]
