"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v`` to see one line per
criterion.  Tolerances are pinned here and nowhere else.
"""

import json
import random

import numpy as np
import pytest

from oracle import DenseWindow, span_residual_norm
from samples import random_hvector, random_structured_isometry
from woldlab import catalog, cli
from woldlab.core import HVector, commutes, doubly_commutes, inner
from woldlab.pairs import (
    PairAnalysis,
    h0_plus,
    pair_decompose,
    weak_bishift_classify,
)
from woldlab.spectral import (
    bilateral_cover,
    has_wandering_vector,
    is_bilateral_shift,
    multiplicity_profile,
)
from woldlab.wold import (
    is_strongly_wandering,
    is_unitary,
    is_wandering,
    kernel_of_adjoint,
    shift_orbit_vectors,
    strongly_wandering_span,
    wandering_span_decompose,
    wold_decompose,
)

TOL = 1e-9
basis = HVector.basis


def _passline(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_fixed_plus_shift_regression():
    op = catalog.example_fixed_plus_shift()
    res = wold_decompose(op, 64)
    assert res.exact
    assert len(res.unitary_window_basis) == 1
    assert res.unitary_window_basis[0].approx_equals(basis(0, 0), TOL)
    assert len(res.shift_wandering_basis) == 1
    assert res.shift_wandering_basis[0].approx_equals(basis(1, 0), TOL)

    span = wandering_span_decompose(op, 64)
    assert span.h0.dim == 1
    assert span.h0.generators[0].approx_equals(basis(0, 0), TOL)

    rng = random.Random(20260808)
    coeffs = [1.0, -1.0, 1j, -1j, 0.5, 0.5 + 0.5j]
    for trial in range(100):
        alpha = rng.choice([c for c in coeffs])
        positions = sorted(rng.sample(range(0, 9), rng.randint(0, 3)))
        w = basis(0, 0, alpha)
        for p in positions:
            w = w + basis(1, p, rng.choice(coeffs))
        cert = is_wandering(op, w, 64)
        assert cert.is_false, trial
        assert cert.exact
        diameter = (max(positions) - min(positions)) if positions else 0
        assert cert.witness <= diameter + 1, (trial, cert.witness, diameter)
    _passline(1, "fixed-plus-shift decomposition and wandering witnesses")


def test_criterion_02_kerchy_regression():
    u = catalog.example_kerchy()
    from fractions import Fraction as F

    profile = multiplicity_profile(u)
    assert profile.breakpoints == (F(0), F(3, 5))
    assert profile.values == (3, 1)

    shift = is_bilateral_shift(u)
    assert shift.value is False
    assert shift.reason == "non-constant multiplicity"

    cover = bilateral_cover(u)
    assert cover.success
    assert len(cover.layers) == 3
    for layer in cover.layers:
        assert is_bilateral_shift(layer.spectral()).value
    assert cover.assignment_profile() == profile
    _passline(2, "Kerchy profile, shift verdict and three-layer cover")


def test_criterion_03_final_example_regression():
    report = catalog.example_final()
    assert report.wandering_finding.value is False
    assert report.hws_equals_hs is True
    # the strongly wandering span collapses onto the shift part exactly when
    # the unitary part offers no wandering vector
    assert has_wandering_vector(report.unitary_part).value is False
    _passline(3, "proper-arc unitary part and H_ws = H_s in the final report")


def test_criterion_04_wold_property_suite():
    window_depth = 10
    for seed in range(500):
        op = random_structured_isometry(seed)
        x = random_hvector(op, seed + 10 ** 6)
        vx = op.apply(x)
        assert abs(vx.norm() - x.norm()) <= TOL, seed
        assert op.apply_adjoint(vx).approx_equals(x, TOL), seed

        res = wold_decompose(op, window_depth, orbit_depth=64)
        window = op.window_indices(window_depth)
        slot = {idx: i for i, idx in enumerate(window)}
        basis_matrix = np.zeros((len(res.unitary_window_basis), len(window)),
                                dtype=complex)
        for i, u in enumerate(res.unitary_window_basis):
            for idx, c in u.items():
                basis_matrix[i, slot[idx]] = c

        def window_array(vec):
            arr = np.zeros(len(window), dtype=complex)
            for idx, c in vec.items():
                if idx in slot:
                    arr[slot[idx]] = c
            return arr

        for w in res.shift_wandering_basis:
            vec = w
            for n in range(65):
                arr = window_array(vec)
                if basis_matrix.size:
                    assert np.max(np.abs(basis_matrix.conj() @ arr)) <= TOL, seed
                vec = op.apply(vec)
        if seed % 10 == 0:
            # drift certificate soundness: once an orbit is flagged escaped,
            # it never touches the window again
            orbits = shift_orbit_vectors(op, res.shift_wandering_basis,
                                         window_depth, steps=64)
            for orbit in orbits:
                if orbit.status != "escaped":
                    continue
                for n, vec in enumerate(orbit.vectors):
                    if n > orbit.onset:
                        assert np.linalg.norm(window_array(vec)) <= TOL, seed
    _passline(4, "500 random structured isometries satisfy the Wold invariants")


def _exact_catalog_operators():
    out = []
    for entry in catalog.fixtures():
        if entry.kind != "operator":
            continue
        op = entry.build()
        if wold_decompose(op, 16).exact:
            out.append((entry.name, op))
    return out


def test_criterion_05_strongly_wandering_splitting():
    from woldlab import _linalg

    depth = 12
    for name, op in _exact_catalog_operators():
        res = wold_decompose(op, depth)
        orbit_vectors = [
            vec for o in shift_orbit_vectors(op, res.shift_wandering_basis, 40)
            for vec in o.vectors
        ]
        samples = [random_hvector(op, seed) for seed in range(25)]
        samples += list(res.shift_wandering_basis)
        for k, x in enumerate(samples):
            xs = HVector.zero()
            for ov in orbit_vectors:
                xs = xs + ov.scaled(inner(x, ov))
            xu = x - xs
            whole = is_strongly_wandering(op, x, depth).is_true
            part_u = True if xu.is_zero(TOL) else \
                is_strongly_wandering(op, xu, depth).is_true
            part_s = True if xs.is_zero(TOL) else \
                is_strongly_wandering(op, xs, depth).is_true
            assert whole == (part_u and part_s), (name, k)

        # W = H_s ⊕ W_u on the window
        span = strongly_wandering_span(op, depth)
        window = set(op.window_indices(depth))
        shift_window = [v.restricted_to(window) for v in orbit_vectors]
        shift_window = [v for v in shift_window if not v.is_zero()]
        unitary_lanes = sorted({idx.lane for g in res.unitary_window_basis
                                for idx in g.support()})
        wu_basis = []
        if unitary_lanes:
            restriction = op.restricted_to_lanes(unitary_lanes)
            wu_basis = list(strongly_wandering_span(restriction, depth).generators)
        combined = _linalg.mgs(shift_window + wu_basis)
        assert span.dim == len(combined), name
        for g in span.generators:
            assert span_residual_norm(g, combined) <= 1e-7, name
    _passline(5, "strong wandering splits along the Wold decomposition")


def _wandering_samples(v1, count, seed):
    """Vectors wandering for v1: orbit translates of adjoint-kernel
    generators (mutually orthogonal orbits), or single basis vectors when
    v1 is unitary with drift."""
    rng = random.Random(seed)
    kernel = kernel_of_adjoint(v1).generators
    coeffs = [1.0, -1.0, 1j, 0.5 + 0.5j]
    samples = []
    for _ in range(count):
        if kernel:
            x = HVector.zero()
            picks = rng.sample(range(len(kernel)), rng.randint(1, len(kernel)))
            for k in picks:
                x = x + v1.apply_power(kernel[k], rng.randint(0, 10)).scaled(
                    rng.choice(coeffs)
                )
            samples.append(x)
        else:
            lane = rng.choice([l for l in v1.lanes if not l.is_finite])
            samples.append(basis(lane.lane_id, rng.randint(-10, 10),
                                 rng.choice(coeffs)))
    return samples


def test_criterion_06_commuting_image_preserves_wandering():
    for entry in catalog.fixtures():
        if entry.kind != "pair":
            continue
        v1, v2 = entry.build()
        if entry.name == "pair_fixed_plus_shift":
            horizon = 24
        else:
            horizon = 24
        for k, x in enumerate(_wandering_samples(v1, 100, seed=hash(entry.name) % 2 ** 31)):
            cert = is_wandering(v1, x, horizon)
            assert cert.is_true, (entry.name, k)
            image = v2.apply(x)
            assert is_wandering(v1, image, horizon).is_true, (entry.name, k)
    _passline(6, "commuting images of wandering vectors stay wandering "
                 "(100 samples per catalog pair)")


def test_criterion_07_forward_closure_certificates():
    for entry in catalog.fixtures():
        if entry.kind != "pair":
            continue
        v1, v2 = entry.build()
        span = wandering_span_decompose(v1, 24)
        if span.certificate.is_undecided:
            continue
        res = h0_plus(PairAnalysis(v1, v2, 24), span.h0)
        assert res.v1_reducing.is_true, entry.name
        assert res.v2_reducing.is_true, entry.name
        assert res.v1_unitary_on, entry.name
        for g in res.subspace.generators:
            assert v1.apply(v1.apply_adjoint(g)).approx_equals(g, TOL)
            assert v1.apply_adjoint(v1.apply(g)).approx_equals(g, TOL)

    op = catalog.example_fixed_plus_shift()
    span = wandering_span_decompose(op, 64)
    res = h0_plus(PairAnalysis(op, op, 64), span.h0)
    assert res.certificate.exact
    assert res.subspace.dim == 1
    assert res.subspace.generators[0].approx_equals(basis(0, 0), TOL)
    _passline(7, "forward closures reduce both operators and stay unitary "
                 "for the first")


def test_criterion_08_pair_suite():
    s2, s3 = catalog.unilateral_shift(2), catalog.unilateral_shift(3)
    assert commutes(s2, s3).is_true
    d = doubly_commutes(s2, s3)
    assert d.is_false and d.witness == basis(0, 0).support()[0]
    assert weak_bishift_classify(PairAnalysis(s2, s3)).is_true
    report = pair_decompose(PairAnalysis(s2, s3, 32))
    assert (report.uu.dim, report.us.dim, report.su.dim) == (0, 0, 0)

    g1, g2 = catalog.grid_pair()
    assert doubly_commutes(g1, g2).is_true

    b = catalog.bilateral_shift()
    assert weak_bishift_classify(PairAnalysis(b, b)).is_false
    _passline(8, "(S^2,S^3), grid and bilateral pair classifications")


def test_criterion_09_oracle_equivalence():
    max_power = 16
    for entry in catalog.fixtures():
        if entry.kind != "operator":
            continue
        op = entry.build()
        window = 64 // max(1, len(op.lanes))
        while len(op.window_indices(window)) < 64:
            window += 1
        base = op.window_indices(window)[:64]
        dense = DenseWindow(op, window, steps=max_power + 2)
        dim = len(dense.indices)
        structural = np.zeros((max_power + 1, len(base), dim), dtype=complex)
        for i, idx in enumerate(base):
            v = HVector([(idx, 1.0)])
            for n in range(max_power + 1):
                structural[n, i] = dense.to_array(v)
                v = op.apply(v)
        powers = [np.eye(dim, dtype=complex)]
        for _ in range(max_power):
            powers.append(dense.matrix @ powers[-1])
        slots = [dense.slot[idx] for idx in base]
        for n in range(max_power + 1):
            expected = powers[n][:, slots].T
            assert np.max(np.abs(structural[n] - expected)) <= TOL, entry.name
        # Gram agreement <V^n e_i, V^m e_j> across all n, m, i, j
        flat_struct = structural.reshape(-1, dim)
        gram_struct = flat_struct.conj() @ flat_struct.T
        flat_dense = np.concatenate([powers[n][:, slots].T
                                     for n in range(max_power + 1)])
        gram_dense = flat_dense.conj() @ flat_dense.T
        assert np.max(np.abs(gram_struct - gram_dense)) <= TOL, entry.name
    _passline(9, "structural orbit inner products match the dense oracle")


@pytest.mark.parametrize("args", [
    ("wold", "--input", "catalog:fixed_plus_shift", "--depth", "64",
     "--format", "json"),
    ("spectral", "--input", "catalog:kerchy", "--format", "json"),
    ("pair", "--input", "catalog:pair_shifts_2_3", "--depth", "24",
     "--format", "json"),
    ("wander", "--input", "catalog:bilateral", "--vector", "0:0=1",
     "--strong", "--format", "json"),
])
def test_criterion_10_cli_determinism(tmp_path, capsys, args):
    first_file = tmp_path / "a.json"
    second_file = tmp_path / "b.json"
    assert cli.main([*args, "--output", str(first_file)]) in (0, 2)
    assert cli.main([*args, "--output", str(second_file)]) in (0, 2)
    capsys.readouterr()
    a, b = first_file.read_bytes(), second_file.read_bytes()
    assert a == b
    json.loads(a.decode())
    _passline(10, f"byte-identical reports for {args[0]}")
