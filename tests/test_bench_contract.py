"""What the benchmark under ``bench/`` needs of the program: every name its
tracer patches resolves, and the warm feature cache and the checkpoint its
generator writes load with the default clip spec.  ``pytest bench`` checks
more, but these checks run with the tier-1 tests."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from stabilitykit import features as feat
from stabilitykit import model

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = bench_module("tracing")
# the tracer also calls these two itself, unpatched
NAMES = [(mod, attr) for mod, attr, _ in tracing.PATCHES] + [("motion", "track_lk"), ("media", "to_luma")]


@pytest.mark.parametrize("mod, attr", NAMES, ids=[f"{m}.{a}" for m, a in NAMES])
def test_traced_name_resolves(mod, attr):
    assert callable(getattr(tracing.program_modules()[mod], attr))


def test_tracer_installs_and_restores():
    modules = tracing.program_modules()
    before = {(mod, attr): getattr(modules[mod], attr) for mod, attr in NAMES}
    with tracing.Tracer().installed():
        assert all(getattr(modules[mod], attr) is not before[mod, attr] for mod, attr, _ in tracing.PATCHES)
    assert {(mod, attr): getattr(modules[mod], attr) for mod, attr in NAMES} == before


def test_warm_cache_loads_with_the_default_spec(tmp_path):
    gen = bench_module("gen")
    cache, manifest = tmp_path / "warm.cache", tmp_path / "warm.csv"
    gen.write_feature_cache(cache, manifest, seed=1, count=40)
    spec = feat.ClipSpec()
    assert gen.FEATURE_DIM == spec.dim
    matrix = feat.load_feature_cache(cache, spec, 0, 40)
    assert matrix.shape == (40, spec.dim) and np.isfinite(matrix).all()


def test_checkpoint_loads_with_the_default_spec(tmp_path):
    # its header has no spec keys, as every checkpoint written before them
    ckpt = tmp_path / "model.ckpt"
    bench_module("gen").write_checkpoint(ckpt)
    params = model.load_checkpoint(ckpt)
    assert params.spec == feat.ClipSpec() and params.input_dim == params.spec.dim
