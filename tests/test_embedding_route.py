"""Circle-valued nets checked in charts and through an embedding of the circle.

A c-bounded net u is moderate iff f o u is moderate for every smooth scalar f
on its target, and u ~ v iff every f o u - f o v is negligible (Kunzinger,
Steinbauer & Vickers, Proc. London Math. Soc. 87, 2003); for an embedded
target the coordinate functions of the embedding suffice on compact sets.
So the status of ``check_moderate(u)`` and ``check_equiv(u, v)`` in the
circle's angle charts must equal their status for iota o u, iota the circle
in the plane (-2, 2)^2: that route reads none of the circle's transitions,
margins or best-chart choices.  Slopes need not agree: ``winder``, t/eps,
grows like eps^-1 in charts and like eps^-3 through iota at k = 3.
"""

import pytest

from mapnets import jets
from mapnets.asymptotics import Status
from mapnets.config import Config
from mapnets.gallery import get_atlas, get_net, get_region
from mapnets.gmap import check_equiv, check_moderate, compose, embed_smooth
from mapnets.manifold import LocalMap, SmoothMap, euclidean_atlas

CFG = Config()
K_UNIT = get_region("K_unit")
PLANE = euclidean_atlas([(-2.0, 2.0), (-2.0, 2.0)], name="plane")
IOTA = embed_smooth(SmoothMap(get_atlas("circle"), PLANE, {
    # chart ang0 holds the angle t of e^(it), chart angpi that of e^(i(t + pi))
    ("ang0", "e0"): LocalMap.from_expr(lambda t: (jets.cos(t), jets.sin(t)), out_shape=(2,),
                                       name="iota:ang0"),
    ("angpi", "e0"): LocalMap.from_expr(lambda t: (-jets.cos(t), -jets.sin(t)),
                                        out_shape=(2,), name="iota:angpi"),
}, name="iota"), "iota")


def embedded(name: str):
    return compose(IOTA, get_net(name), tag=f"iota.{name}")


@pytest.mark.parametrize("name", ["s1_jump", "winder", "s1_jump_flat", "s1_jump_eps_bump"])
def test_moderate_has_one_status_by_both_routes(name):
    in_charts = check_moderate(get_net(name), K_UNIT, None, 3, CFG)
    through_iota = check_moderate(embedded(name), K_UNIT, None, 3, CFG)
    assert in_charts.status is through_iota.status is Status.PASS


@pytest.mark.parametrize("other,status", [("s1_jump_flat", Status.PASS),
                                          ("s1_jump_eps_bump", Status.FAIL)])
def test_equiv_has_one_status_by_both_routes(other, status):
    in_charts = check_equiv(get_net("s1_jump"), get_net(other), [K_UNIT], None, 2, CFG)
    through_iota = check_equiv(embedded("s1_jump"), embedded(other), [K_UNIT], None, 2, CFG)
    assert in_charts.status is through_iota.status is status


def test_the_slope_is_not_invariant():
    """The angle t/eps has no second derivative; cos(t/eps) has a third of
    size eps^-3."""
    in_charts = check_moderate(get_net("winder"), K_UNIT, None, 3, CFG).estimate
    through_iota = check_moderate(embedded("winder"), K_UNIT, None, 3, CFG).estimate
    assert (in_charts.slope, in_charts.n_or_m) == (pytest.approx(-1.0), 1)
    assert (through_iota.slope, through_iota.n_or_m) == (pytest.approx(-3.0), 3)
