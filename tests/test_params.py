import dataclasses

import pytest

from sparsedil.params import D, LEVELS, N, Q, ROOT_OF_UNITY, ParameterSet, param_set


def test_table_values():
    assert (param_set(2).eta, param_set(2).tau, param_set(2).beta) == (2, 39, 78)
    assert (param_set(3).eta, param_set(3).tau, param_set(3).beta) == (4, 49, 196)
    assert (param_set(5).eta, param_set(5).tau, param_set(5).beta) == (2, 60, 120)


def test_shared_ring_constants():
    assert (Q, N, D) == (8380417, 256, 13)
    for lv in LEVELS:
        p = param_set(lv)
        assert p.beta == p.tau * p.eta


def test_every_field_varies_across_levels():
    # a value shared by every level is a module constant (Q, N, D), not a
    # field that one parameter set could set differently from the others
    for f in dataclasses.fields(ParameterSet):
        if f.name != "level":
            assert len({getattr(param_set(lv), f.name) for lv in LEVELS}) >= 2, f.name


def test_modulus_structure():
    assert Q % (2 * N) == 1          # 2n divides q-1
    assert Q % 512 == 1
    assert pow(ROOT_OF_UNITY, 512, Q) == 1
    assert pow(ROOT_OF_UNITY, 256, Q) == Q - 1   # primitive: order exactly 512


def test_int8_fit_flags():
    assert param_set(2).challenge_fits_int8
    assert param_set(5).challenge_fits_int8
    assert not param_set(3).challenge_fits_int8   # 196 > 127


def test_matrix_shapes_and_bounds():
    assert (param_set(2).k, param_set(2).l) == (4, 4)
    assert (param_set(3).k, param_set(3).l) == (6, 5)
    assert (param_set(5).k, param_set(5).l) == (8, 7)
    assert param_set(2).gamma1 == 1 << 17
    assert param_set(3).gamma1 == param_set(5).gamma1 == 1 << 19
    assert param_set(2).gamma2 == (Q - 1) // 88
    assert param_set(3).gamma2 == param_set(5).gamma2 == (Q - 1) // 32
    assert (param_set(2).omega, param_set(3).omega, param_set(5).omega) == (80, 55, 75)


def test_unsupported_level():
    with pytest.raises(ValueError, match="unsupported"):
        param_set(4)


def test_immutable():
    p = param_set(2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.eta = 3
