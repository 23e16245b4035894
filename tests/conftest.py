import numpy as np
import pytest

import swarmsentry as ss


@pytest.fixture
def table_noise():
    return ss.NoiseParams(pos_var=1e-6, dist_var=1e-6)


def make_scenario(kind: str, m: int, seed: int, n: int = 30, d: float = 0.3,
                  pos_var: float = 1e-6, dist_var: float = 1e-6) -> ss.AttackedScenario:
    noise = ss.NoiseParams(pos_var, dist_var)
    swarm = ss.generate_swarm(n, 0.5, d, seed=seed)
    swarm = ss.apply_position_noise(swarm, noise, seed=seed)
    measurements = ss.measure_distances(swarm, noise, seed=seed)
    if m == 0:
        return ss.AttackedScenario(swarm, measurements)
    return ss.build_attack(swarm, measurements, kind, m, seed=seed, dist_var=dist_var)


def honest_scenario(seed: int, n: int = 20, d: float = 0.3,
                    pos_var: float = 1e-6, dist_var: float = 1e-6) -> ss.AttackedScenario:
    return make_scenario("distributed", 0, seed, n=n, d=d, pos_var=pos_var, dist_var=dist_var)


def hand_swarm(positions, d: float = 0.3) -> ss.Swarm:
    """Swarm with explicit true=reported positions; no generation noise."""
    pts = np.asarray(positions, dtype=float)
    uavs = tuple(ss.Uav(i, pts[i], pts[i]) for i in range(len(pts)))
    return ss.Swarm(uavs, comm_range=d, cube_half_width=0.5, rng_seed=0)


def pair_set(n: int, entries: dict, cls=ss.MeasurementSet):
    """The set of ``n`` UAVs whose k-th entry is the k-th item of the
    ``{(i, j): r}`` dict ``entries``."""
    return cls(n, [i for i, _ in entries], [j for _, j in entries], list(entries.values()))
