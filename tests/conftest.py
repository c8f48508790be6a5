import sys

import numpy as np
import pytest

from gridmc import datamatrix as dm
from gridmc import gridmodel as gm
from gridmc import linflow as lf
from reference import truncate_model


@pytest.fixture(scope="session")
def small_feeder():
    """9-bus single-phase radial feeder with a 3-area chain partition."""
    net, s = gm.generate_radial_feeder(9, seed=2, n_steps=2)
    part = gm.AreaPartition.contiguous(net.n_phases, 3)
    return net, s, part


@pytest.fixture(scope="session")
def small_instance(small_feeder):
    """Ground truth, measurement matrix, and area maps for the small feeder."""
    net, s, part = small_feeder
    v = gm.solve_exact_flow(net, s)
    mat = dm.build_matrix(v, s)
    model = lf.build_linear_model(net, n_steps=s.shape[0])
    trunc = truncate_model(model, part)
    maps = lf.build_area_maps(model, part)
    return {
        "net": net, "s": s, "part": part, "v": v, "mat": mat,
        "model": model, "trunc": trunc, "maps": maps,
    }


@pytest.fixture(scope="session")
def analog33():
    net, s, part = gm.feeder33_analog(seed=0, n_steps=2, n_areas=4)
    return net, s, part


def rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance verdict lines after the run summary."""
    mod = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance"
    )
    if mod is None or not getattr(mod, "VERDICT_LINES", None):
        return
    terminalreporter.section("acceptance verdicts")
    for line in mod.VERDICT_LINES:
        terminalreporter.write_line(line)
