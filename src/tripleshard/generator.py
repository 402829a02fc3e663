"""Deterministic synthetic sensor-observation graph.

The generated data is star shaped: a small number of sensor subjects each
link out to many observation subjects, and every observation carries a
handful of literal measurement values. Sensors therefore dominate the
out-degree distribution, which is what the degree-ranked seeding stage
expects to find in sensor-network style data.

Predicate multiplicities are calibrated so the resulting centrality spectrum
is spread rather than clustered at 1.0: single-valued measurements sit at
1.0, precipitation (sometimes recorded twice) lands near 0.75, wind gusts
(often recorded more than once) near 0.57, the sensor adjacency ring at
exactly 0.5, and the high-fanout observation link close to 0.
"""

from __future__ import annotations

import random

from .store import Triple, TripleStore, _integer, paused_collector

LINK_PREDICATE = "hasObservation"
ADJACENT_PREDICATE = "adjacentTo"
REGION_PREDICATE = "locatedIn"
MODEL_PREDICATE = "stationModel"

# every observation gets the core set; extras are sampled per observation
CORE_MEASUREMENTS = ("airTemperature", "humidity", "windDirection", "windGust")
EXTRA_MEASUREMENTS = ("precipitation", "dewPoint", "barometricPressure")

REGIONS = ("region/east", "region/west", "region/north", "region/south", "region/gulf")
STATION_MODELS = ("dx100", "vb7", "kr2")

# (low, high) value band per measurement predicate
_VALUE_BANDS = {
    "airTemperature": (-10.0, 40.0),
    "humidity": (20.0, 100.0),
    "windDirection": (0.0, 359.0),
    "windGust": (5.0, 45.0),
    "precipitation": (0.0, 30.0),
    "dewPoint": (-5.0, 25.0),
    "barometricPressure": (980.0, 1040.0),
}

# how many values a single observation records for one predicate
_MULTIPLICITY_CHOICES = {
    "windGust": (1, 2, 2, 2),
    "precipitation": (1, 1, 2),
}


def _measurement_values(rng: random.Random, predicate: str) -> list[str]:
    low, high = _VALUE_BANDS[predicate]
    count = rng.choice(_MULTIPLICITY_CHOICES.get(predicate, (1,)))
    base = rng.uniform(low, high)
    # offset repeated readings so set semantics cannot collapse them
    return [f"{base + 0.1 * j:.1f}" for j in range(count)]


def generate_sensor_graph(seed: int, sensors: int, observations_per_sensor: int) -> TripleStore:
    """Build a reproducible sensor-observation store.

    Equal arguments always produce a byte-identical serialization. Each
    sensor links to between half and all of ``observations_per_sensor``
    observations, keeping the distinct-subject count at most
    ``sensors * (1 + observations_per_sensor)`` while every observation
    contributes at least five triples.
    """
    with paused_collector():
        _integer(sensors, "sensors", 0)
        _integer(observations_per_sensor, "observations_per_sensor", 0)
        rng = random.Random(seed)
        triples: list[Triple] = []

        sensor_ids = [f"sensor/{i:04d}" for i in range(sensors)]
        for i, sensor in enumerate(sensor_ids):
            triples.append(Triple(sensor, REGION_PREDICATE, rng.choice(REGIONS), False))
            triples.append(Triple(sensor, MODEL_PREDICATE, rng.choice(STATION_MODELS), True))

            # adjacency: ring neighbour plus one random chord keeps every sensor
            # reachable from any seed fragment
            if sensors > 1:
                neighbours = [sensor_ids[(i + 1) % sensors]]
                others = [s for s in sensor_ids if s != sensor and s not in neighbours]
                if others:
                    neighbours.append(rng.choice(others))
                for other in neighbours:
                    triples.append(Triple(sensor, ADJACENT_PREDICATE, other, False))

            if observations_per_sensor == 0:
                continue
            obs_count = rng.randint((observations_per_sensor + 1) // 2, observations_per_sensor)
            for j in range(obs_count):
                obs = f"obs/{i:04d}/{j:05d}"
                triples.append(Triple(sensor, LINK_PREDICATE, obs, False))
                predicates = list(CORE_MEASUREMENTS)
                predicates += rng.sample(EXTRA_MEASUREMENTS, rng.randint(0, 2))
                for predicate in predicates:
                    for value in _measurement_values(rng, predicate):
                        triples.append(Triple(obs, predicate, value, True))

        return TripleStore(triples)
