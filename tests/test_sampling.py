"""The one sampler behind every sampled certificate's scan points."""

import numpy as np
import pytest

from qqocert import ks_global_check, sampled_positivity_check, sampling, state_preservation_check
from qqocert.core import _bloch_vector


@pytest.mark.parametrize("n, complex_", [(1, False), (3, False), (2, True), (3, True)])
def test_sphere_points_unit_shaped_and_seeded(n, complex_):
    a = sampling.sphere_points(2000, 5, n, complex_)
    assert a.shape == (2000, n)
    assert a.dtype == (complex if complex_ else float)
    assert np.max(np.abs(np.linalg.norm(a, axis=1) - 1.0)) <= 1e-14
    assert np.array_equal(a, sampling.sphere_points(2000, 5, n, complex_))
    assert not np.allclose(a, sampling.sphere_points(2000, 6, n, complex_))


@pytest.mark.parametrize("samples", [0, -3])
def test_sphere_points_refuse_a_budget_below_one(samples):
    with pytest.raises(ValueError, match="need at least one sample"):
        sampling.sphere_points(samples, 0, 3, False)


@pytest.mark.parametrize("seed", [0, 1, 801])
def test_positivity_scan_points_are_uniform_on_the_bloch_sphere(seed):
    # uniform w on S^2 has mean 0 and second moments I/3
    w = _bloch_vector(sampling.sphere_points(20_000, seed, 2, True))
    assert np.linalg.norm(w.mean(axis=0)) < 0.02
    assert np.max(np.abs(w.T @ w / len(w) - np.eye(3) / 3.0)) < 0.01


def test_every_sampled_certificate_draws_through_the_one_sampler(monkeypatch):
    drawn = []
    sphere_points = sampling.sphere_points

    def recording(samples, seed, n, complex_):
        drawn.append((samples, n, complex_))
        return sphere_points(samples, seed, n, complex_)

    monkeypatch.setattr(sampling, "sphere_points", recording)
    b = 0.3 * np.random.default_rng(3).standard_normal((3, 3, 3))
    for run, expected in (
        (state_preservation_check, (20_000, 3, False)),
        (sampled_positivity_check, (20_000, 2, True)),
        (ks_global_check, (50_000, 3, True)),
    ):
        drawn.clear()
        run(b)
        assert drawn == [expected], run.__name__
