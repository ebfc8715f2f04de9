"""The one redraw loop of every Monte-Carlo route: per-sample substreams,
redraws from the same generator, and a quota that can run out."""

import pytest

from lkpolar import germ, lkmeasure, polar
from lkpolar.geomkit import (
    MAX_REDRAWS,
    DegenerateDirectionError,
    RandomSource,
    per_sample_values,
)
from lkpolar.plstrata import DegenerateSliceError


class _Flaky(ValueError):
    pass


def test_samples_draw_from_their_substreams_and_redraw_from_the_same_generator():
    rng = RandomSource(5, 2)

    def trial(i, gen):
        x = gen.standard_normal()
        if x < 0.0:
            raise _Flaky
        return x

    def expected(i):
        gen = rng.substream(i).generator()
        while (x := gen.standard_normal()) < 0.0:
            pass
        return x

    assert per_sample_values(8, rng, trial, _Flaky, "test") == [expected(i) for i in range(8)]


def test_other_errors_pass_through():
    def trial(i, gen):
        raise KeyError(i)

    with pytest.raises(KeyError):
        per_sample_values(2, RandomSource(0), trial, _Flaky, "test")


def _raise(err):
    def step(*args, **kwargs):
        raise err("always degenerate")

    return step


# route name, call, (module, evaluated step, error it retries on), (module, sampler)
ROUTES = {
    "polar_length": (
        lambda: polar.polar_length(lkmeasure.shape_from_name("cube"), 1, 3, RandomSource(1)),
        (polar, "_piece_values", DegenerateDirectionError), (polar, "sample_grassmannian")),
    "exchange_lambda0": (
        lambda: lkmeasure.exchange_lambda0(lkmeasure.shape_from_name("cube"), 3, RandomSource(2)),
        (lkmeasure, "_morse_sum_pl", DegenerateDirectionError),
        (lkmeasure, "sample_unit_sphere")),
    "kinematic_check": (
        lambda: lkmeasure.kinematic_check(lkmeasure.shape_from_name("ball:1"), 1, 3,
                                          RandomSource(3)),
        (lkmeasure, "slice_euler_characteristic", DegenerateSliceError),
        (lkmeasure, "sample_affine_flats_hitting_ball")),
    "sigma_invariant": (
        lambda: germ.sigma_invariant(germ.germ_from_name("rays:3"), 1, 3, RandomSource(4)),
        (germ, "slice_chi_stabilized", DegenerateSliceError), (germ, "sample_grassmannian")),
    "local_polar_length": (
        lambda: germ.local_polar_length(germ.germ_from_name("rays:3"), 0, 3, RandomSource(5)),
        (germ, "_pl_local_polar_one", DegenerateDirectionError), (germ, "sample_grassmannian")),
    "round cone apex": (
        lambda: germ.local_lambda(germ.germ_from_name("cone-circle:0.6"), 0, RandomSource(6),
                                  n_dirs=3),
        (germ, "slice_chi_stabilized", DegenerateSliceError), (germ, "sample_unit_sphere")),
}


@pytest.mark.parametrize("route", list(ROUTES))
def test_every_quota_can_run_out(route, monkeypatch):
    call, (home, step, err), (sampler_home, sampler) = ROUTES[route]
    monkeypatch.setattr(home, step, _raise(err))
    draws = []
    draw = getattr(sampler_home, sampler)
    monkeypatch.setattr(sampler_home, sampler,
                        lambda *args: draws.append(1) or draw(*args))
    with pytest.raises(RuntimeError, match="resample quota") as info:
        call()
    assert not isinstance(info.value, err)  # the quota, not the retried error
    assert len(draws) == MAX_REDRAWS  # all of them for the first sample


def test_rejected_planes_are_counted_and_kept(monkeypatch):
    # the first plane of every sample fails its alpha step, the second is used
    values = polar._piece_values
    calls = []

    def every_other(*args):
        calls.append(1)
        if len(calls) % 2:
            raise DegenerateDirectionError("vanishing fold curvature (cusp)")
        return values(*args)

    monkeypatch.setattr(polar, "_piece_values", every_other)
    res = polar.polar_length(lkmeasure.shape_from_name("cube"), 1, 4, RandomSource(7),
                             keep_rows=True)
    assert (res.n_rejected, res.reject_reasons) == (4, {"alpha": 4})
    assert [(i, reason) for i, _, _, reason in res.per_plane] == [
        (i, reason) for i in range(4) for reason in ("alpha", "")]
