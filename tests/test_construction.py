import dataclasses
import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, optimize

from fastpolar import construction
from fastpolar.construction import (_X_SPLIT, PolarCode, _log_phi_large, _log_phi_small,
                                    construct_code, ga_llr_means, load_descriptor,
                                    save_descriptor)
from helpers import ga_llr_means_reference

# 8 design sigmas from 0.2 to 4.0, with 0.05 and 20, where the means sit far
# up the large-mean branch or pile up at the _M_MIN floor
SWEEP_SIGMAS = (0.05, 0.2, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 4.0, 20.0)


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
    # numpy scalars are numbers too
    c = construct_code(np.int64(7), np.int64(64), np.float64(0.5))
    assert np.array_equal(a.flags, c.flags)


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


@pytest.mark.parametrize("sigma", [np.float32(0.5), np.int64(1), Fraction(1, 2)])
def test_descriptor_round_trip_any_real_sigma(tmp_path, sigma):
    # a code keeps its sigma as a float: before, json.dump raised a TypeError
    # half-way and left a truncated descriptor on disk
    code = construct_code(3, 4, sigma)
    path = tmp_path / "code.json"
    save_descriptor(code, path)
    assert type(code.design_sigma) is float and code.design_sigma == sigma
    assert load_descriptor(path) == code == construct_code(3, 4, float(sigma))


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
    ({"n": 3, "frozen_indices": [0, 1, 8]},
     r"a frozen index must be an integer in \[0, 8\), got 8"),
    ({"n": 3, "frozen_indices": [-1, 0, 1]},
     r"a frozen index must be an integer in \[0, 8\), got -1"),
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


@pytest.mark.parametrize("flags,message", [
    ([0, 0, 0, 2], "only the bits 0 and 1"),  # a 2 would count toward K
    ([0, 0, 257, 1], "only the bits 0 and 1"),  # 257 would wrap to 1
    ([0, 0, 0, -1], "only the bits 0 and 1"),
    ([0, 1, 1], "length is a power of two, got shape \\(3,\\)"),
    ([], "length is a power of two, got shape \\(0,\\)"),
    ([[0, 1], [1, 1]], "1-D bit vector whose length is a power of two, got shape \\(2, 2\\)"),
])
def test_polar_code_rejects_bad_fields(flags, message):
    with pytest.raises(ValueError, match=message):
        PolarCode(np.array(flags), 0.5)


def test_polar_code_derives_n_and_k_from_its_flags():
    code = PolarCode(np.array([0, 1, 0, 0, 1, 1, 0, 1]))
    assert (code.n, code.N, code.K, code.design_sigma) == (3, 8, 4, 0.5)
    assert [f.name for f in dataclasses.fields(code)] == ["flags", "design_sigma"]
    assert repr(code) == "PolarCode(design_sigma=0.5)"
    assert type(code.n) is type(code.K) is int


def test_polar_code_is_a_value():
    code = construct_code(3, 4)
    assert code == construct_code(3, 4) and hash(code) == hash(construct_code(3, 4))
    assert code != construct_code(3, 4, 0.7) and code != construct_code(3, 5)
    assert code != code.flags and len({code, construct_code(3, 4)}) == 1
    with pytest.raises(ValueError, match="read-only"):
        code.flags[0] = 1
    flags = np.array([0, 1, 0, 0, 1, 1, 0, 1], np.uint8)
    mine = PolarCode(flags)
    flags[0] = 1  # the caller's array is not the code's
    assert mine.K == 4 and mine == PolarCode(np.array([0, 1, 0, 0, 1, 1, 0, 1]))


def test_invalid_parameters():
    with pytest.raises(ValueError):
        construct_code(3, 9, 0.5)
    with pytest.raises(ValueError):
        construct_code(3, -1, 0.5)
    with pytest.raises(ValueError):
        construct_code(3, 4, 0.0)
    with pytest.raises(ValueError, match="n must be an integer >= 0, got -1"):
        construct_code(-1, 0, 0.5)


@pytest.mark.parametrize("sigma", SWEEP_SIGMAS)
def test_flags_equal_reference_ranking(sigma):
    # n 1-12 with five K each (480 codes over the eight sigmas from 0.2 to
    # 4.0): the reference ranking sorts the scalar means descending, the
    # higher index first on ties, and keeps the first K
    for n in range(1, 13):
        N = 1 << n
        ref = ga_llr_means_reference(n, sigma)
        order = sorted(range(N), key=lambda i: (-ref[i], -i))
        for K in (1, N // 4, N // 2, 3 * N // 4, N - 1):
            flags = np.zeros(N, dtype=np.uint8)
            flags[order[:K]] = 1
            assert np.array_equal(construct_code(n, K, sigma).flags, flags), (n, K)


@pytest.mark.parametrize("sigma", SWEEP_SIGMAS)
def test_means_match_reference(sigma):
    # measured worst: 3.3e-13, at sigma 0.3 and n 12
    for n in range(13):
        ref = ga_llr_means_reference(n, sigma)
        assert np.allclose(ga_llr_means(n, sigma), ref, rtol=1e-12, atol=0), n


@pytest.mark.parametrize("n,K,sigma,digest", [
    (10, 512, 0.5, "1eb40be92bf47d9b40cf5fd0833494488397f0510ff3724fbffc15b9a89f1c9c"),
    (8, 128, 0.5, "9d09b8cea9868d0fc217fbeca06032bff4e3d2d60f4ba526b48e25be3d964b7d"),
])
def test_benchmark_codes_pinned(n, K, sigma, digest):
    # SHA-256 of the uint8 flags as the scalar construction built them
    assert hashlib.sha256(construct_code(n, K, sigma).flags.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("sigma", [0.05, 20.0])
def test_large_branch_stays_above_split(monkeypatch, sigma):
    # below _X_SPLIT the large-mean branch is not the model, and below 10/7
    # its log1p is undefined
    seen = []

    def spy(x):
        seen.append(np.min(x, initial=np.inf))
        return _log_phi_large(x)

    monkeypatch.setattr(construction, "_log_phi_large", spy)
    construct_code(12, 2048, sigma)
    assert seen and min(seen) >= _X_SPLIT


@pytest.mark.parametrize("K,sigma,message", [
    (4, float("nan"), "design_sigma must be a positive number .* got nan at n = 3"),
    (4, float("inf"), "design_sigma must be a positive number .* got inf at n = 3"),
    (4, 1e-200, "design_sigma must be a positive number .* got 1e-200 at n = 3"),
    (4, 1e200, r"design_sigma must be a positive number .* got 1e\+200 at n = 3"),
    # 2/sigma^2 is finite here, and 2^3 times it is not
    (4, 1.3e-154, "design_sigma must be a positive number .* got 1.3e-154 at n = 3"),
    (4, True, "design_sigma must be a positive number .* got True at n = 3"),
    (8.0, 0.5, r"K must be an integer in \[0, 9\), got 8.0"),
    (True, 0.5, r"K must be an integer in \[0, 9\), got True"),
])
def test_construct_code_rejects_hostile_inputs(K, sigma, message):
    # before these checks: nan raised brentq's error, inf built flags
    # [0 1 0 1 ...], 1e-200 and 1e200 raised ZeroDivisionError and
    # OverflowError, and K=8.0 a TypeError from a slice
    with pytest.raises(ValueError, match=message):
        construct_code(3, K, sigma)


def test_inv_log_phi_upper_bracket():
    # Below _log_phi_small(X), X = _X_SPLIT, _check_update solves on the
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


def test_brentq_port_matches_scipy(monkeypatch):
    # the in-repo port returns scipy.optimize.brentq's float bit for bit, on
    # _X_SPLIT's bracket and on every mean below whose target reaches the
    # large-branch solve; it refuses what scipy refuses
    split = lambda x: _log_phi_small(x) - _log_phi_large(x)
    assert construction._brentq(split, 10.0, 20.0) == _X_SPLIT == optimize.brentq(split, 10.0, 20.0)
    m = np.concatenate([np.geomspace(_X_SPLIT, 1e9, 12_000), np.linspace(0.0, 200.0, 12_000)])
    target = construction._check_target(np.where(
        m < _X_SPLIT, _log_phi_small(m), _log_phi_large(np.maximum(m, _X_SPLIT))))
    means = m[target < construction._LP_SPLIT].tolist()
    assert len(means) > 20_000
    port = np.array([construction._check_update(x) for x in means])
    monkeypatch.setattr(construction, "_brentq", optimize.brentq)
    assert port.tobytes() == np.array([construction._check_update(x) for x in means]).tobytes()
    monkeypatch.undo()
    for solve in (construction._brentq, optimize.brentq):
        with pytest.raises(ValueError, match=r"^f\(a\) and f\(b\) must have different signs$"):
            solve(split, 20.0, 30.0)
        # a step defeats interpolation: halving 1e300 down to 2e-12 takes over 100 steps
        with pytest.raises(RuntimeError, match="^Failed to converge after 100 iterations.$"):
            solve(lambda x: -1.0 if x < 0.3 else 1.0, -1e300, 1e300)
