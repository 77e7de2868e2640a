"""Every JSON loader returns or raises ValueError, and nothing else, whatever the document."""

from dataclasses import fields

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
import pytest

from uavsched.experiment import ExperimentConfig, config_from_json
from uavsched.model import DEFAULT_TIMINGS, instance_from_json, timings_from_json, timings_to_json
from uavsched.netgen import (
    HoverParams,
    NetworkParams,
    RadioParams,
    network_from_json,
    params_from_json,
    scenario_from_json,
)

LOADERS = (
    params_from_json,
    config_from_json,
    timings_from_json,
    instance_from_json,
    network_from_json,
    scenario_from_json,
)

# every key some loader reads, at any level of its document
FIELD_NAMES = sorted(
    {f.name for cls in (NetworkParams, RadioParams, HoverParams, ExperimentConfig) for f in fields(cls)}
    | set(timings_to_json(DEFAULT_TIMINGS))
    | {"flows", "uavs", "id", "t_ms", "delta", "rule_counts", "r_del", "r_ins", "r_mod", "p_watts"}
    | {"params", "x", "y", "mass_kg", "retired", "route"}
)

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([10**400, -(10**400), 1e308, 5e-324, 1e-200])
    | st.text(max_size=4)
    | st.sampled_from(["heuristic", "random", "exact_dp"])
)

JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)

KEYED_OBJECTS = st.dictionaries(
    st.sampled_from(FIELD_NAMES),
    st.recursive(
        SCALARS,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(FIELD_NAMES), inner, max_size=5),
        max_leaves=10,
    ),
    max_size=6,
)


HUGE_COUNTS = {"r_del": 10**400, "r_ins": 1, "r_mod": 1}
ONE_UAV = [{"id": 0, "p_watts": 10.0}]


def two_uavs(x=9.0, mass=1.0, **params):
    """A two-UAV network document: UAV 0 at the origin with ``mass``, UAV 1 at (x, 0)."""
    uavs = [{"id": 0, "x": 0.0, "y": 0.0, "mass_kg": mass}, {"id": 1, "x": x, "y": 0.0, "mass_kg": 1.0}]
    return {"params": {"num_uavs": 2, **params}, "uavs": uavs}


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(document=JSON_VALUES | KEYED_OBJECTS)
# documents that once ended in OverflowError, ZeroDivisionError or an uncaught zero-distance error
@example(document={"flows": [{"id": 0, "rule_counts": HUGE_COUNTS, "delta": [0]}], "uavs": ONE_UAV})
@example(document={"flows": [{"id": 0, "t_ms": 20, "rule_counts": HUGE_COUNTS, "delta": [0]}], "uavs": ONE_UAV})
@example(document=two_uavs(mass=1e300))
@example(document=two_uavs(hover={"prop_radius": 1e-200}))
@example(document=two_uavs(x=0.0))
# bad timings in an instance, and a bad config value, once escaped as other error types
@example(document={"timings": {"tau_del_ms": -1}, "flows": [], "uavs": ONE_UAV})
@example(document={"iterations": 1})
def test_loader_returns_or_raises_a_documented_error(loader, document):
    try:
        loader(document)
    except ValueError:
        pass
