import random

from woldlab import fileformat

from perfbench import gen, workloads


def snapshot(workload, seed):
    queries = workloads.setup(workload, seed)
    inputs = workloads.work_dir(workload, seed) / "inputs"
    files = {p.name: p.read_bytes() for p in sorted(inputs.iterdir())}
    return [q.to_jsonable() for q in queries], files


def test_generator_is_deterministic_per_seed():
    for workload in workloads.WORKLOADS:
        assert snapshot(workload, 11) == snapshot(workload, 11)
        assert snapshot(workload, 11)[0] != snapshot(workload, 12)[0]


def test_random_inputs_parse():
    rnd = random.Random(3)
    kinds = set()
    for _ in range(200):
        shape = gen.random_shape(rnd)
        lanes = shape.lanes
        op = fileformat.parse_operator(gen.random_isometry(shape, rnd))
        kinds.update(lane.kind for lane in op.lanes)
        fileformat.parse_vector_literal(gen.random_vector(rnd, lanes))
        fileformat.parse_spectral(gen.random_spectral(rnd))
    assert kinds == {"naturals", "integers", "finite"}
