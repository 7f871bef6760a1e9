import types

import woldlab
from woldlab import cli, core, pairs, wold

from perfbench import tracer as tr


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


SOURCE = """
def leaf():
    work(2)

def outer():
    work(1)
    leaf()
    work(3)
    leaf()

def rec(n):
    work(1)
    if n:
        rec(n - 1)
"""


def synthetic(clock):
    mod = types.ModuleType("synthetic")

    def work(t):
        clock.now += t

    mod.work = work
    exec(SOURCE, vars(mod))
    other = types.ModuleType("importer")  # holds leaf by name, as cli does
    other.leaf = mod.leaf
    return mod, other


def test_self_time_nested_and_recursive():
    clock = FakeClock()
    mod, other = synthetic(clock)
    tracer = tr.Tracer(clock=clock)
    for name in ("leaf", "outer", "rec"):
        tracer.patch(mod, name, name, modules=[mod, other])
    mod.outer()
    mod.rec(2)
    other.leaf()
    tracer.restore()

    names = tracer.names
    assert names == ["outer", "leaf", "leaf", "rec", "rec", "rec", "leaf"]
    durations = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    assert durations == [8, 2, 2, 3, 2, 1, 2]
    assert list(tracer.parents) == [-1, 0, 0, -1, 3, 4, -1]
    assert tracer.self_times() == [4, 2, 2, 1, 1, 1, 2]
    # restore put the originals back everywhere
    assert other.leaf is mod.leaf and not hasattr(mod.leaf, "__wrapped__")


def test_install_patches_every_lookup_site_and_restores():
    originals = (core.commutes, wold.is_strongly_wandering,
                 core.StructuredIsometry.apply)
    tracer = tr.Tracer()
    tr.install(tracer)
    try:
        assert cli.commutes is pairs.commutes is core.commutes
        assert core.commutes is not originals[0]
        assert woldlab.is_strongly_wandering is wold.is_strongly_wandering
        assert wold.is_strongly_wandering is not originals[1]
        assert core.StructuredIsometry.apply is not originals[2]
    finally:
        tracer.restore()
    assert (core.commutes, wold.is_strongly_wandering,
            core.StructuredIsometry.apply) == originals
    assert cli.commutes is pairs.commutes is woldlab.commutes is originals[0]


def test_recursion_through_strong_exactness_is_nested():
    # fixed_plus_shift has two lane components, so is_strongly_wandering
    # recurses once per component through _strong_exactness
    tracer = tr.Tracer()
    tr.install(tracer)
    try:
        op = woldlab.catalog.get("fixed_plus_shift").build()
        x = woldlab.HVector.basis(1, 0)
        woldlab.is_strongly_wandering(op, x, 8)
    finally:
        tracer.restore()
    strong = tr.span_name("wold", "is_strongly_wandering")
    spans = [i for i, n in enumerate(tracer.names) if n == strong]
    assert len(spans) == 2
    assert tracer.parents[spans[1]] >= spans[0]
    own = tracer.self_times()
    assert all(t >= 0 for t in own)
    total = tracer.ends[spans[0]] - tracer.starts[spans[0]]
    inside = [i for i in range(spans[0], len(tracer.names))
              if tracer.starts[i] <= tracer.ends[spans[0]]]
    assert abs(sum(own[i] for i in inside) - total) < 1e-9
