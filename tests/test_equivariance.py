"""Scale degrees of the sample kernels and the body constructions, bit for bit.

Scaling by 2**k is exact in the floats, so an operation homogeneous of degree
d must return 2**(d k) times its unscaled output with the same bits: C, D, the
hull radial, the certificate violation and flower_of have degree 1, polar and
cof degree -1, and volume degree n (the dimension).  The kernels rescale by
powers of two wherever their products could leave the floats, so only an
absolute constant or a range guard that does not follow the scale can break
these identities.  The one exception is qhull: off the uniform 2D grids a
cloud within 2**+-QHULL_MAX_EXP reaches it as it is, and its facets are not
exact under scaling (up to 6 ulp at 2**-40 on 28 of 90 log-normal clouds), so
there the hull radial is held to HULL_ULPS.
"""
import functools
import math

import numpy as np
import pytest

from flowerlab._sampleops import QHULL_MAX_EXP, certificate_violation, hull_radial, radial_of_halfspaces, support_of_cloud
from flowerlab.bodies import ConvexBody, StarBody, cof, core_of, flower_of, polar, random_convex_body, volume
from flowerlab.errors import NotAFlowerError
from flowerlab.spherecore import sampled_sphere_grid, uniform_angle_grid

GRIDS = {
    "2d-720": lambda: uniform_angle_grid(720),
    "2d-8192": lambda: uniform_angle_grid(8192),
    "3d-512": lambda: sampled_sphere_grid(3, 512, 0),
    "3d-4096": lambda: sampled_sphere_grid(3, 4096, 1),
    "5d-1024": lambda: sampled_sphere_grid(5, 1024, 2),
}
SCALES = [1, 40, -40, 600, -600]
HULL_ULPS = 8


@functools.cache
def _case(name):
    """A grid, a log-normal cloud on it and a certified body: random_convex_body in 2D, C of the cloud elsewhere."""
    g = GRIDS[name]()
    w = np.exp(0.3 * np.random.default_rng(len(name) + g.size).normal(size=g.size))
    return g, w, random_convex_body(g, 1) if g.dim == 2 else ConvexBody.of_cloud(g, w)


def _scaled(k: ConvexBody, e: int) -> ConvexBody:
    # certified as k is: C(D(h)) == h is homogeneous, only the certificate's tolerance is not
    return ConvexBody(k.grid, np.ldexp(k.support, e), certified=True)


@pytest.fixture(scope="module", params=list(GRIDS))
def case(request):
    return _case(request.param)


@pytest.mark.parametrize("e", SCALES)
def test_degree_one(case, e):
    g, w, body = case
    h = body.support
    for op, x in ((support_of_cloud, w), (radial_of_halfspaces, h)):
        assert np.array_equal(op(g, np.ldexp(x, e)), np.ldexp(op(g, x), e)), op.__name__
    hull, scaled_hull = np.ldexp(hull_radial(g, w), e), hull_radial(g, np.ldexp(w, e))
    if g.dim == 2 or abs(e) > QHULL_MAX_EXP:
        assert np.array_equal(scaled_hull, hull)
    else:
        assert (np.abs(scaled_hull - hull) <= HULL_ULPS * np.spacing(hull)).all()
    for x in (w, h):
        assert certificate_violation(g, np.ldexp(x, e)) == math.ldexp(certificate_violation(g, x), e)
    assert np.array_equal(flower_of(_scaled(body, e)).radial, np.ldexp(flower_of(body).radial, e))


@pytest.mark.parametrize("e", SCALES)
def test_degree_minus_one(case, e):
    g, w, body = case
    assert np.array_equal(polar(_scaled(body, e)).support, np.ldexp(polar(body).support, -e))
    assert np.array_equal(cof(StarBody(g, np.ldexp(w, e))).radial, np.ldexp(cof(StarBody(g, w)).radial, -e))


def test_degree_n_in_the_floats(case):
    g, w, body = case
    in_range = [e for e in SCALES if abs(e) * g.dim < 900]
    assert in_range == [1, 40, -40]
    for e in in_range:
        assert volume(_scaled(body, e)) == math.ldexp(volume(body), g.dim * e)
        assert volume(StarBody(g, np.ldexp(w, e))) == math.ldexp(volume(StarBody(g, w)), g.dim * e)


@pytest.mark.xfail(strict=True, raises=NotAFlowerError,
                   reason="the certificate's violation scales with the body, its tolerance does not")
def test_core_of_a_scaled_flower_is_the_scaled_body():
    for name in GRIDS:
        big = _scaled(_case(name)[2], 40)
        assert np.array_equal(core_of(flower_of(big)).support, big.support)
