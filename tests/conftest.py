import pytest

from darpkit import (
    GeneratorConfig, INBOUND, Instance, Request, TravelMetric,
    generate_synthetic,
)

from helpers import TINY_CORDEAU_TEXT, line_instance


@pytest.fixture(scope="session")
def pooling_instance() -> Instance:
    """Three requests where only the two single-seat ones can share.

    Requests 1 and 2 demand one seat each, request 3 fills the vehicle,
    so the only multi-passenger states pool 1 with 2.
    """
    coords = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.0, 1.0), 3: (2.0, 0.0),
              4: (1.0, 1.0), 5: (0.0, 2.0), 6: (2.0, 1.0)}
    metric = TravelMetric(coords=coords)
    reqs = []
    for i, q in ((1, 1), (2, 1), (3, 3)):
        reqs.append(Request(
            id=i, pickup_loc=i, dropoff_loc=i + 3, q=q, s=1.0,
            pickup_window=(0.0, 100.0), dropoff_window=(0.0, 100.0),
            max_ride=30.0, direction=INBOUND))
    return Instance(name="pooling", requests=tuple(reqs), fleet_size=2,
                    capacity=3, depot_loc=0, depot_window=(0.0, 200.0),
                    metric=metric)


@pytest.fixture(scope="session")
def stacked_instance() -> Instance:
    """Two nested requests riding together on one vehicle.

    On the tour pickup-1, pickup-2, dropoff-2, dropoff-1 the earliest
    window-feasible times violate the ride limit of request 1, so the
    minimal schedule must delay the first pickup.
    """
    return line_instance(
        "stacked",
        positions=(-5.0, 0.0, 2.0, 22.0, 12.0),
        specs=[
            {"pickup": (20, 25), "dropoff": (50, 60), "max_ride": 25},
            {"pickup": (30, 40), "dropoff": (40, 50), "max_ride": 20},
        ],
        fleet_size=1, capacity=2, depot_window=(0.0, 200.0))


@pytest.fixture(scope="session")
def gen_instances() -> list[Instance]:
    """A handful of small generated instances for module-level checks."""
    out = []
    for n, cap, seed in ((2, 3, 0), (3, 3, 5), (3, 6, 2), (4, 3, 7),
                         (4, 6, 3), (5, 3, 11)):
        out.append(generate_synthetic(GeneratorConfig(n=n, capacity=cap, seed=seed)))
    return out


@pytest.fixture()
def tiny_cordeau_text() -> str:
    return TINY_CORDEAU_TEXT
