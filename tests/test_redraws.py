"""The one redraw loop of every Monte-Carlo route: per-sample substreams,
blocks of samples evaluated at once, redraws from the same generator, and a
quota that can run out."""

import numpy as np
import pytest

from lkpolar import germ, lkmeasure, polar
from lkpolar.geomkit import (
    BLOCK,
    MAX_REDRAWS,
    DegenerateDirectionError,
    RandomSource,
    each_draw,
    per_sample_values,
)
from lkpolar.plstrata import DegenerateSliceError
from lkpolar.smoothshape import DegenerateHeightError, HeightCriticalPoints


class _Flaky(ValueError):
    pass


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
    def fn(i, x):
        raise KeyError(i)

    with pytest.raises(KeyError):
        per_sample_values(2, RandomSource(0), _normal, each_draw(fn, _Flaky), "test")


def test_each_draw_flags_the_retried_errors_only():
    def fn(i, x):
        if i % 2:
            raise _Flaky
        return 10.0 * i

    vals, redraw = each_draw(fn, _Flaky)([0, 1, 2, 3], [None] * 4)
    assert redraw.tolist() == [False, True, False, True]
    assert vals[~redraw].tolist() == [0.0, 20.0]


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


def _raise(err):
    def step(*args, **kwargs):
        raise err("always degenerate")

    return step


def _flag_all(*args):
    # a stacked step: every plane, direction or flat of the stack (its last
    # argument) is degenerate
    return np.zeros(len(args[-1])), np.ones(len(args[-1]), dtype=bool)


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
        (polar, "_pl_cell_values", _raise(DegenerateDirectionError), DegenerateDirectionError),
        (polar, "sample_grassmannian")),
    "exchange_lambda0": (
        lambda: lkmeasure.exchange_lambda0(lkmeasure.shape_from_name("cube"), 3, RandomSource(2)),
        (lkmeasure, "_morse_sum_pl", _raise(DegenerateDirectionError), DegenerateDirectionError),
        (lkmeasure, "sample_unit_sphere")),
    "smooth exchange_lambda0": (
        lambda: lkmeasure.exchange_lambda0(lkmeasure.shape_from_name("sphere:1"), 3,
                                           RandomSource(10)),
        (lkmeasure, "height_critical_points_many", _no_morse_height, DegenerateHeightError),
        (lkmeasure, "sample_unit_sphere")),
    "smooth polar_length q=0": (
        lambda: polar.polar_length(lkmeasure.shape_from_name("sphere:1"), 0, 3, RandomSource(11)),
        (polar, "height_critical_points_many", _no_morse_height, DegenerateHeightError),
        (polar, "sample_grassmannian")),
    "kinematic_check": (
        lambda: lkmeasure.kinematic_check(lkmeasure.shape_from_name("ball:1"), 1, 3,
                                          RandomSource(3)),
        (lkmeasure, "slice_euler_characteristic", _raise(DegenerateSliceError),
         DegenerateSliceError),
        (lkmeasure, "sample_affine_flats_hitting_ball")),
    "sigma_invariant": (
        lambda: germ.sigma_invariant(germ.germ_from_name("rays:3"), 1, 3, RandomSource(4)),
        (germ, "_slice_chi_stabilized_many", _flag_all, DegenerateSliceError),
        (germ, "draw_grassmannian")),
    "local_polar_length": (
        lambda: germ.local_polar_length(germ.germ_from_name("rays:3"), 0, 3, RandomSource(5)),
        (germ, "_pl_local_polar_many", _flag_all, DegenerateDirectionError),
        (germ, "draw_grassmannian")),
    "round cone apex": (
        lambda: germ.local_lambda(germ.germ_from_name("cone-circle:0.6"), 0, RandomSource(6),
                                  n_dirs=3),
        (germ, "_slice_chi_stabilized_many", _flag_all, DegenerateSliceError),
        (germ, "sample_unit_sphere")),
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


def test_rejected_planes_are_counted_and_kept(monkeypatch):
    # the first plane of every sample fails its alpha step, the second is used
    values = polar._pl_cell_values
    sample = polar.sample_grassmannian
    first = []  # the first plane drawn from each generator
    seen = set()

    def tagged(n, k, gen):
        P = sample(n, k, gen)
        if id(gen) not in seen:
            seen.add(id(gen))
            first.append(P)
        return P

    def fails_first(X, images, rows, P):
        if any(P is Q for Q in first):
            raise DegenerateDirectionError("vanishing fold curvature (cusp)")
        return values(X, images, rows, P)

    monkeypatch.setattr(polar, "sample_grassmannian", tagged)
    monkeypatch.setattr(polar, "_pl_cell_values", fails_first)
    res = polar.polar_length(lkmeasure.shape_from_name("cube"), 1, 4, RandomSource(7),
                             keep_rows=True)
    assert (res.n_rejected, res.reject_reasons) == (4, {"alpha": 4})
    # sample then attempt, although a block evaluates its redraws last
    assert [(i, reason) for i, _, _, reason in res.per_plane] == [
        (i, reason) for i in range(4) for reason in ("alpha", "")]
