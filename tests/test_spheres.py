"""Symbolic wedge-of-spheres descriptors and the homotopy-type recursion."""

import time

import pytest

from gridhomology import (
    WedgeDescriptor,
    descriptor_betti,
    descriptor_euler,
    predict,
    suspend,
    wedge,
)

POINT = WedgeDescriptor.point()


def S(d, k=1):
    return WedgeDescriptor.sphere(d, k)


def test_suspend_examples():
    assert suspend(POINT, 5) == POINT
    assert suspend(S(0), 1) == S(1)
    assert suspend(S(1, 2), 2) == S(3, 2)
    assert suspend(S(-1), 1) == S(0)  # empty complex suspends to two points


def test_wedge_examples():
    assert wedge([POINT, S(2)]) == S(2)
    assert wedge([S(2), S(2)]) == S(2, 2)
    assert wedge([S(1, 2), S(0)]) == WedgeDescriptor(((0, 1), (1, 2)))
    assert wedge([]) == POINT


def test_predict_base_cases():
    for m in (2, 3, 4):
        assert predict(m, 1) == POINT
        assert predict(m, 2) == S(0)
        assert predict(m, 4) == S(m)
    assert predict(2, 3) == S(1, 2)
    assert predict(3, 3) == wedge([S(1), S(2)])


def test_predict_m1_closed_form():
    assert predict(1, 6) == S(2)
    assert predict(1, 7) == POINT
    for n in range(1, 21):
        expected = POINT if n % 2 else S(n // 2 - 1)
        assert predict(1, n) == expected


def test_predict_m1_satisfies_step_recursion():
    for n in range(3, 16):
        assert predict(1, n) == suspend(predict(1, n - 2), 1)


def test_predict_unfolded_values():
    assert predict(2, 5) == S(2, 2)
    assert predict(2, 6) == S(3, 5)
    assert predict(3, 4) == S(3)


def test_predict_m2_specialization():
    for n in range(5, 13):
        a = predict(2, n - 3)
        b = predict(2, n - 4)
        assert predict(2, n) == wedge([suspend(a, 2), suspend(a, 2), suspend(b, 3)])


def test_predict_rejects_bad_parameters():
    for m, n in [(0, 3), (2, 0), (-1, 1)]:
        with pytest.raises(ValueError):
            predict(m, n)


def test_predict_memoized_and_total():
    t0 = time.perf_counter()
    d = predict(4, 40)
    assert time.perf_counter() - t0 < 1.0
    assert d.spheres  # finite nonempty multiset
    assert all(k >= 1 for _, k in d.spheres)


def test_descriptor_betti_examples():
    assert descriptor_betti(POINT) == {}
    assert descriptor_betti(S(1, 2)) == {1: 2}
    assert descriptor_betti(S(-1)) == {-1: 1}


def test_descriptor_euler_examples():
    assert descriptor_euler(POINT) == 0
    assert descriptor_euler(S(1, 2)) == -2
    assert descriptor_euler(predict(2, 5)) == 2
    assert descriptor_euler(S(-1)) == -1


def test_euler_is_alternating_betti_sum():
    for d in [POINT, S(0), predict(2, 8), predict(3, 9), wedge([S(-1), S(2, 3)])]:
        alt = sum((1 if dim % 2 == 0 else -1) * k for dim, k in descriptor_betti(d).items())
        assert descriptor_euler(d) == alt


def test_suspend_distributes_over_wedge():
    parts = [S(0), S(1, 2), POINT, S(3)]
    for t in range(4):
        assert suspend(wedge(parts), t) == wedge([suspend(p, t) for p in parts])


def test_descriptor_canonical_form_and_validation():
    assert WedgeDescriptor.from_betti({2: 1, 0: 3}) == WedgeDescriptor(((0, 3), (2, 1)))
    with pytest.raises(ValueError):
        WedgeDescriptor(((1, 0),))  # zero multiplicity
    with pytest.raises(ValueError):
        WedgeDescriptor(((-2, 1),))  # dimension below -1
    with pytest.raises(ValueError):
        WedgeDescriptor(((1, 1), (1, 1)))  # repeated dimension


def test_descriptor_text_and_json_forms():
    assert str(POINT) == "point"
    assert str(wedge([S(1, 2)])) == "S^1 ∨ S^1"
    assert str(predict(2, 6)) == " ∨ ".join(["S^3"] * 5)
    assert POINT.to_json_obj() == {"contractible": True}
    assert S(2, 2).to_json_obj() == {"spheres": {"2": 2}}
    for d in [POINT, S(2, 2), predict(3, 7), S(-1)]:
        assert WedgeDescriptor.from_json_obj(d.to_json_obj()) == d


def test_descriptor_text_of_a_huge_wedge_is_compact():
    assert str(wedge([S(2, 10_000), S(3)])) == "(S^2)^∨10000 ∨ S^3"
    assert str(wedge([S(2, 10_001)])) == "(S^2)^∨10001"
    assert str(S(2, 10_000)) == " ∨ ".join(["S^2"] * 10_000)
