import json

import numpy as np
import pytest
from scipy import integrate, optimize

from fastpolar.construction import (_X_SPLIT, PolarCode, _log_phi_large, _log_phi_small,
                                    construct_code, ga_llr_means, load_descriptor,
                                    save_descriptor)


def numeric_check_update(m):
    """Check-side mean update via direct numerical integration, independent
    of the package's closed-form approximations."""

    def one_minus_etanh(mean):
        if mean < 1e-9:
            return 1.0
        s = np.sqrt(2.0 * mean)
        f = lambda z: np.tanh(z / 2.0) * np.exp(-(z - mean) ** 2 / (4.0 * mean))
        val, _ = integrate.quad(f, mean - 40 * s, mean + 40 * s, limit=200)
        return 1.0 - val / np.sqrt(4.0 * np.pi * mean)

    target = 1.0 - (1.0 - one_minus_etanh(m)) ** 2
    return optimize.brentq(lambda x: one_minus_etanh(x) - target, 1e-9, 6000.0,
                           xtol=1e-10)


def numeric_means(n, sigma):
    # decoder convention: the top split acts on the raw channel first, so
    # the left half recurses on the check-side mean, the right on 2m
    def rec(levels, m):
        if levels == 0:
            return [m]
        return rec(levels - 1, numeric_check_update(m)) + rec(levels - 1, 2.0 * m)

    return np.array(rec(n, 2.0 / sigma**2))


def test_rate_one_all_info():
    code = construct_code(3, 8, 0.5)
    assert code.flags.tolist() == [1] * 8


def test_rate_zero_all_frozen():
    code = construct_code(3, 0, 0.5)
    assert code.flags.tolist() == [0] * 8
    assert code.frozen_indices.tolist() == list(range(8))


def test_n8_k4_frozen_set():
    code = construct_code(3, 4, 0.5)
    assert sorted(code.frozen_indices.tolist()) == [0, 1, 2, 4]


def test_ordering_matches_numeric_integration_oracle():
    # same frozen choice must fall out of a from-scratch numeric GA
    ref = numeric_means(3, 0.5)
    mine = ga_llr_means(3, 0.5)
    assert np.allclose(np.argsort(ref), np.argsort(mine))
    frozen = np.argsort(ref, kind="stable")[:4]
    assert sorted(int(i) for i in frozen) == [0, 1, 2, 4]


def test_means_accuracy_against_integration():
    ref = numeric_means(4, 0.5)
    mine = ga_llr_means(4, 0.5)
    # two-segment closed form is an approximation; a few percent is expected
    assert np.all(np.abs(mine - ref) / np.maximum(ref, 0.05) < 0.25)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_universal_partial_order(n):
    means = ga_llr_means(n, 0.5)
    N = 1 << n
    for i in range(N):
        for j in range(N):
            if (i | j) == j and means[j] < means[i] - 1e-9:
                pytest.fail(f"channel {j} dominates {i} but ranks worse")


def test_construction_deterministic():
    a = construct_code(7, 64, 0.5)
    b = construct_code(7, 64, 0.5)
    assert np.array_equal(a.flags, b.flags)


def test_tie_break_freezes_lower_index():
    # a rate-1/2 code at any sigma: identical means can only come from
    # identical subtrees; just assert the sorted choice is stable
    code = construct_code(6, 32, 1.0)
    assert int(code.flags.sum()) == 32
    assert code.flags[0] == 0  # index 0 is always the worst channel


def test_descriptor_round_trip(tmp_path):
    code = construct_code(6, 20, 0.7)
    path = tmp_path / "code.json"
    save_descriptor(code, path)
    loaded = load_descriptor(path)
    assert loaded.n == code.n and loaded.K == code.K
    assert loaded.design_sigma == code.design_sigma
    assert np.array_equal(loaded.flags, code.flags)
    raw = json.loads(path.read_text())
    assert raw["frozen_indices"] == sorted(raw["frozen_indices"])


@pytest.mark.parametrize("with_k", [False, True])
def test_descriptor_rejects_repeated_frozen_indices(tmp_path, with_k):
    desc = {"n": 3, "frozen_indices": [0, 1, 1, 2, 4, 4]}
    if with_k:
        desc["K"] = 3
    path = tmp_path / "code.json"
    path.write_text(json.dumps(desc))
    with pytest.raises(ValueError, match=r"repeats \[1, 4\]"):
        load_descriptor(path)


@pytest.mark.parametrize("desc,message", [
    ({"n": 3, "frozen_indices": [0, 1, 8]}, "frozen_indices out of range"),
    ({"n": 3, "frozen_indices": [-1, 0, 1]}, "frozen_indices out of range"),
    ({"n": 3, "K": 4, "frozen_indices": [0, 1, 2]}, "descriptor K inconsistent"),
])
def test_descriptor_rejects_inconsistent_fields(tmp_path, desc, message):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(desc))
    with pytest.raises(ValueError, match=message):
        load_descriptor(path)


@pytest.mark.parametrize("field,value", [
    ("n", 4.7), ("n", 3.0), ("n", True), ("n", "3"),
    ("K", 4.0), ("K", True), ("frozen", 7.5), ("frozen", False),
])
def test_descriptor_rejects_non_integers(tmp_path, field, value):
    # 4.7 used to load as n=4 and a frozen index 7.5 as 7
    desc = {"n": 3, "K": 4, "frozen_indices": [0, 1, 2, 4]}
    if field == "frozen":
        desc["frozen_indices"][-1] = value
    else:
        desc[field] = value
    path = tmp_path / "code.json"
    path.write_text(json.dumps(desc))
    with pytest.raises(ValueError, match="must be an integer"):
        load_descriptor(path)


@pytest.mark.parametrize("n,K,flags,message", [
    (2, 2, [0, 0, 0, 2], "only the bits 0 and 1"),  # K 2, yet no information position
    (2, 2, [0, 0, 257, 1], "only the bits 0 and 1"),  # 257 would wrap to 1
    (2, 1, [0, 0, 0, -1], "only the bits 0 and 1"),
    (2.0, 2, [0, 0, 1, 1], "n must be an integer"),
    (True, 1, [0, 1], "n must be an integer"),
    (2, 2.0, [0, 0, 1, 1], "K must be an integer"),
    (2, True, [0, 0, 0, 1], "K must be an integer"),
    (-1, 0, [], "n must be >= 0, got -1"),  # not Python's "negative shift count"
])
def test_polar_code_rejects_bad_fields(n, K, flags, message):
    with pytest.raises(ValueError, match=message):
        PolarCode(n, K, np.array(flags), 0.5)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        construct_code(3, 9, 0.5)
    with pytest.raises(ValueError):
        construct_code(3, -1, 0.5)
    with pytest.raises(ValueError):
        construct_code(3, 4, 0.0)
    with pytest.raises(ValueError, match="n must be >= 0, got -1"):
        construct_code(-1, 0, 0.5)
    with pytest.raises(ValueError):
        PolarCode(3, 4, np.zeros(8, dtype=np.uint8), 0.5)
    with pytest.raises(ValueError, match="flags must have length 8"):
        PolarCode(3, 4, np.ones(4, dtype=np.uint8), 0.5)


def test_inv_log_phi_upper_bracket():
    # Below _log_phi_small(X), X = _X_SPLIT, _inv_log_phi solves on the
    # large-mean branch over [X, hi] with hi = max(4X, -8t), and needs no
    # widening: _log_phi_large(hi) <= t for every target t there.  Proof:
    # _log_phi_large decreases, so if t >= _log_phi_large(4X), hi >= 4X
    # brackets.  Otherwise t < _log_phi_large(4X) < -X/2, so y = -8t > 4X > pi,
    # where both log terms of _log_phi_large(y) are negative; what is left is
    # -y/4 = 2t < t.
    assert _log_phi_large(4 * _X_SPLIT) < -_X_SPLIT / 2 and 4 * _X_SPLIT > np.pi
    top = _log_phi_small(_X_SPLIT)
    t = np.concatenate([top - np.geomspace(1e-12, 1e9, 200_000),
                        np.linspace(top - 40.0, top, 20_000, endpoint=False)])
    assert (_log_phi_large(np.maximum(4 * _X_SPLIT, -8 * t)) <= t).all()
