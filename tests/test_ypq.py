"""Exact lattice data and level-set sampling for the toric family."""

import math
from fractions import Fraction

import numpy as np
import pytest

from contactkit import ypq as ypq_module
from contactkit.cli import main
from contactkit.ypq import (
    TOTIENT_MAX,
    InvalidToricParameterError,
    LevelSetSample,
    WeightMatrix,
    YpqParams,
    circle_pairing_check,
    circle_weights,
    class_table,
    classify,
    contact_pairing,
    format_dossier,
    format_table,
    hirzebruch_data,
    homogeneous_coordinate_check,
    is_free,
    level_set_residuals,
    moment_circle,
    moment_t4,
    quotient_kahler_data,
    quotient_reeb_weights,
    reeb_positivity,
    reeb_weights,
    reparametrize_torus,
    sample_level_set,
    sasaki_cone_membership,
    torus_weights,
    totient,
    vertex_minimum,
    ypq_report,
)

SEED = 20110615

ALL_PAIRS = [YpqParams(p, q) for p, qs in class_table(100).items() for q in qs]


class TestParams:
    def test_valid(self):
        params = YpqParams(3, 1)
        assert (params.p, params.q) == (3, 1)
        assert params.gcd == 1

    @pytest.mark.parametrize("p, q", [(1, 1), (2, 2), (2, 3), (3, 0), (0, 0), (5, -1)])
    def test_out_of_range(self, p, q):
        with pytest.raises(InvalidToricParameterError):
            YpqParams(p, q)

    @pytest.mark.parametrize("p, q", [(2.0, 1), (3, "1"), (True, 1), (3, True)])
    def test_non_integer(self, p, q):
        with pytest.raises(InvalidToricParameterError):
            YpqParams(p, q)


class TestWeights:
    def test_circle_weights_golden(self):
        assert circle_weights(YpqParams(3, 1)) == (2, 4, -3, -3)
        assert circle_weights(YpqParams(2, 1)) == (1, 3, -2, -2)

    def test_circle_weights_sum_zero_everywhere(self):
        assert all(sum(circle_weights(params)) == 0 for params in ALL_PAIRS)

    def test_reeb_weights_golden(self):
        assert reeb_weights(YpqParams(3, 1)) == (4, 2, 3, 3)
        assert quotient_reeb_weights(YpqParams(3, 1)) == (2, 4, 3, 3)

    def test_moment_t4(self):
        moduli = moment_t4((1 + 1j, 2, 0, -3j))
        assert moduli == pytest.approx((2.0, 4.0, 0.0, 9.0))

    def test_moment_t4_rejects_origin(self):
        with pytest.raises(ValueError, match="origin"):
            moment_t4((0, 0, 0, 0))
        with pytest.raises(ValueError, match="expected 4"):
            moment_t4((1, 2, 3))

    def test_moment_circle_golden(self):
        assert moment_circle(YpqParams(2, 1), (1, 0, 1, 0)) == pytest.approx(-1.0)
        assert moment_circle(YpqParams(3, 1), (0, 1, 0, 0)) == pytest.approx(4.0)

    def test_is_free(self):
        free, explanation = is_free(YpqParams(3, 1))
        assert free
        assert "gcd(3,1) = 1" in explanation
        blocked, explanation = is_free(YpqParams(4, 2))
        assert not blocked
        assert explanation == "action not free: stabilizer order 2"


class TestLevelSet:
    def test_residuals_tiny(self):
        for params in (YpqParams(3, 1), YpqParams(5, 2), YpqParams(7, 4)):
            for sample in sample_level_set(params, 64, seed=SEED):
                first, second = level_set_residuals(params, sample)
                assert first < 1e-12
                assert second < 1e-12

    def test_segment_endpoint_by_hand(self):
        sample = LevelSetSample((0.25, 0.0, 1.0 / 6.0, 0.0), (0.0, 0.0, 0.0, 0.0))
        first, second = level_set_residuals(YpqParams(3, 1), sample)
        assert first == pytest.approx(0.0, abs=1e-15)
        assert second == pytest.approx(0.0, abs=1e-15)

    def test_complex_coordinates_match_moduli(self):
        params = YpqParams(3, 2)
        for sample in sample_level_set(params, 16, seed=SEED):
            z = sample.complex_coordinates()
            recovered = moment_t4(z)
            assert recovered == pytest.approx(sample.moduli, abs=1e-14)
            assert abs(moment_circle(params, z)) < 1e-12

    def test_deterministic(self):
        a = sample_level_set(YpqParams(4, 1), 32, seed=SEED)
        b = sample_level_set(YpqParams(4, 1), 32, seed=SEED)
        assert a == b
        c = sample_level_set(YpqParams(4, 1), 32, seed=SEED + 1)
        assert a != c

    def test_sits_on_ambient_weighted_sphere(self):
        # The two linear constraints sum to the unit weighted-sphere equation
        # with weights (p-q, p+q, p, p).
        for params in (YpqParams(3, 1), YpqParams(5, 3)):
            weights = quotient_reeb_weights(params)
            for sample in sample_level_set(params, 32, seed=SEED):
                assert contact_pairing(weights, sample.moduli) == pytest.approx(
                    1.0, abs=1e-12
                )


class TestPositivity:
    def test_vertex_minimum_golden(self):
        params = YpqParams(3, 1)
        assert vertex_minimum(params, reeb_weights(params)) == Fraction(3, 4)
        assert vertex_minimum(params, circle_weights(params)) == 0
        assert vertex_minimum(params, (2, 4, 3, 3)) == 1

    def test_reeb_positivity_check(self):
        result = reeb_positivity(YpqParams(3, 1), count=128, seed=SEED)
        assert result.passed
        assert result.max_residual == 0.0
        assert result.detail["exact_minimum"] == "3/4"
        assert result.detail["exact_minimum_float"] == pytest.approx(0.75)
        assert result.detail["sampled_minimum"] >= 0.75 - 1e-12

    def test_vertex_minimum_bounds_samples(self):
        # The exact vertex minimum really is a lower bound for sampled values.
        for params in (YpqParams(2, 1), YpqParams(7, 3)):
            weights = reeb_weights(params)
            floor = float(vertex_minimum(params, weights))
            values = [
                contact_pairing(weights, s.moduli)
                for s in sample_level_set(params, 128, seed=SEED)
            ]
            assert min(values) >= floor - 1e-12

    def test_circle_pairing_vanishes(self):
        for params in (YpqParams(3, 1), YpqParams(9, 5), YpqParams(50, 49)):
            result = circle_pairing_check(params, count=128, seed=SEED)
            assert result.passed
            assert result.max_residual < 1e-12
            assert result.tolerance == 1e-12

    def test_sasaki_cone_membership_goldens(self):
        params = YpqParams(3, 1)
        member, minimum = sasaki_cone_membership(params, (4, 2, 3, 3))
        assert member
        assert minimum == Fraction(3, 4)
        assert float(minimum) == pytest.approx(0.75)
        boundary, minimum = sasaki_cone_membership(params, circle_weights(params))
        assert not boundary
        assert minimum == 0
        member, minimum = sasaki_cone_membership(params, (2, 4, 3, 3))
        assert member
        assert minimum == 1

    def test_sasaki_cone_membership_requires_balanced_tail(self):
        with pytest.raises(ValueError, match="a3 = a4"):
            sasaki_cone_membership(YpqParams(3, 1), (1, 1, 2, 3))

    def test_sasaki_cone_membership_rational_weights(self):
        member, minimum = sasaki_cone_membership(
            YpqParams(3, 1), (Fraction(1, 2), Fraction(1, 2), 1, 1)
        )
        assert member
        # min((1/2)/4, (1/2)/8) + 1/6 for (p, q) = (3, 1)
        assert minimum == Fraction(1, 16) + Fraction(1, 6)


class TestReparametrization:
    def test_change_of_basis_golden(self):
        change, reduced = reparametrize_torus(YpqParams(3, 1))
        assert change == ((1, -1), (2, 4))
        determinant = change[0][0] * change[1][1] - change[0][1] * change[1][0]
        assert determinant == 6
        assert reduced.rows == ((2, 0, 3, 3), (1, 1, 0, 0))
        assert [reduced.column(j) for j in range(4)] == [
            (2, 1),
            (0, 1),
            (3, 0),
            (3, 0),
        ]

    def test_change_of_basis_second_golden(self):
        change, reduced = reparametrize_torus(YpqParams(2, 1))
        assert change == ((1, -1), (1, 3))
        assert [reduced.column(j) for j in range(4)] == [
            (2, 1),
            (0, 1),
            (2, 0),
            (2, 0),
        ]

    def test_determinant_everywhere(self):
        for params in ALL_PAIRS:
            change, _ = reparametrize_torus(params)
            determinant = change[0][0] * change[1][1] - change[0][1] * change[1][0]
            assert determinant == 2 * params.p

    def test_identity_reverified_on_every_call(self):
        # reparametrize_torus re-checks transpose(B) W' = W internally; the
        # full sweep would raise if the exact identity ever failed.
        for params in ALL_PAIRS:
            reparametrize_torus(params)

    def test_torus_weights_rows(self):
        matrix = torus_weights(YpqParams(5, 2))
        assert matrix.rows == ((7, 3, 5, 5), (3, 7, -5, -5))

    def test_weight_matrix_validation(self):
        with pytest.raises(ValueError):
            WeightMatrix(())
        with pytest.raises(ValueError):
            WeightMatrix(((1, 2, 3),))
        with pytest.raises(ValueError):
            WeightMatrix(((1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 4)))


class TestHomogeneousCoordinates:
    def test_golden_small(self):
        result = homogeneous_coordinate_check(YpqParams(3, 1))
        assert result.passed
        assert result.max_residual == 0.0
        assert result.detail["y_bidegree"] == [6, 3]
        assert result.detail["w_bidegree"] == [3, 0]
        assert result.detail["relation_exponents"] == [0, 3, 2, 2]

    def test_golden_larger(self):
        result = homogeneous_coordinate_check(YpqParams(5, 2))
        assert result.passed
        assert result.detail["y_bidegree"] == [20, 5]
        assert result.detail["w_bidegree"] == [5, 0]
        assert result.detail["relation_exponents"] == [0, 5, 4, 4]

    def test_even_p_rejected(self):
        with pytest.raises(InvalidToricParameterError, match="odd p"):
            homogeneous_coordinate_check(YpqParams(4, 1))

    def test_all_odd_p(self):
        for params in ALL_PAIRS:
            if params.p % 2 == 1:
                assert homogeneous_coordinate_check(params).passed


class TestQuotientInvariants:
    def test_hirzebruch_goldens(self):
        assert hirzebruch_data(YpqParams(3, 1)) == (2, 3)
        assert hirzebruch_data(YpqParams(4, 1)) == (1, 2)
        assert hirzebruch_data(YpqParams(5, 2)) == (4, 5)

    def test_hirzebruch_requires_free_action(self):
        with pytest.raises(InvalidToricParameterError, match="stabilizer order 2"):
            hirzebruch_data(YpqParams(4, 2))

    def test_hirzebruch_parity_everywhere(self):
        for params in ALL_PAIRS:
            index, ramification = hirzebruch_data(params)
            if params.p % 2 == 1:
                assert (index, ramification) == (2 * params.q, params.p)
            else:
                assert (index, ramification) == (params.q, params.p // 2)

    def test_quotient_kahler_goldens(self):
        assert quotient_kahler_data(YpqParams(3, 2)) == ((1, 5), (3, 1))
        assert quotient_kahler_data(YpqParams(5, 1)) == ((2, 3), (5, 2))
        assert quotient_kahler_data(YpqParams(3, 1)) == ((1, 2), (3, 2))

    def test_quotient_kahler_gcd_rule_everywhere(self):
        for params in ALL_PAIRS:
            pair, (first, second) = quotient_kahler_data(params)
            assert first == params.p
            assert second in (1, 2)
            both_odd = params.p % 2 == 1 and params.q % 2 == 1
            assert (second == 2) == both_odd
            assert pair != (1, 1)

    def test_classify(self):
        assert classify(YpqParams(3, 1), YpqParams(3, 2))
        assert not classify(YpqParams(3, 1), YpqParams(5, 1))
        with pytest.raises(InvalidToricParameterError):
            classify(YpqParams(4, 2), YpqParams(3, 1))


class TestEnumeration:
    def test_totient_values(self):
        values = {1: 1, 2: 1, 5: 4, 6: 2, 12: 4, 30: 8, 97: 96, 100: 40}
        for m, expected in values.items():
            assert totient(m) == expected
        with pytest.raises(ValueError):
            totient(0)

    def test_totient_refuses_arguments_past_its_bound(self):
        assert totient(TOTIENT_MAX) == 4 * 10**12  # 10^13 = 2^13 5^13
        with pytest.raises(InvalidToricParameterError, match=f"totient\\({TOTIENT_MAX + 1}\\)"):
            totient(TOTIENT_MAX + 1)

    def test_coprime_pair_count(self):
        assert len(ALL_PAIRS) == 3043
        assert len(ALL_PAIRS) == sum(totient(p) for p in range(2, 101))

    def test_enumerate_small(self):
        table = class_table(6)
        assert sorted(table) == [2, 3, 4, 5, 6]
        assert [len(table[p]) for p in sorted(table)] == [1, 2, 2, 4, 2]
        for p, qs in table.items():
            assert len(qs) == totient(p)

    def test_enumerate_builds_no_dossiers(self, monkeypatch):
        totient_calls = []
        real_totient = ypq_module.totient

        def counted_totient(m):
            totient_calls.append(m)
            return real_totient(m)

        def no_report(params):
            raise AssertionError("enumeration built a dossier")

        monkeypatch.setattr(ypq_module, "totient", counted_totient)
        monkeypatch.setattr(ypq_module, "ypq_report", no_report)
        table = class_table(60)
        assert sorted(totient_calls) == list(range(2, 61))
        assert all(type(q) is int for qs in table.values() for q in qs)

    def test_enumerate_rejects_wrong_class_size(self, monkeypatch):
        real_totient = ypq_module.totient
        monkeypatch.setattr(
            ypq_module, "totient", lambda m: real_totient(m) + 1 if m == 12 else real_totient(m)
        )
        with pytest.raises(ArithmeticError, match=r"p = 12 has 4 members, totient\(p\) = 5"):
            class_table(20)
        class_table(11)

    def test_class_table_small(self):
        assert class_table(6) == {2: [1], 3: [1, 2], 4: [1, 3], 5: [1, 2, 3, 4], 6: [1, 5]}

    def test_class_table_rejects_trivial_bound(self):
        with pytest.raises(InvalidToricParameterError, match="p_max >= 2"):
            class_table(1)

    def test_class_table_rejects_wrong_class_size(self, monkeypatch):
        real_totient = ypq_module.totient
        monkeypatch.setattr(
            ypq_module, "totient", lambda m: real_totient(m) - 1 if m == 7 else real_totient(m)
        )
        with pytest.raises(ArithmeticError, match=r"p = 7 has 6 members, totient\(p\) = 5"):
            class_table(7)

    @pytest.mark.parametrize("p_max", range(2, 61))
    def test_enumerate_wraps_the_class_table(self, capsys, p_max):
        # ``ypq --enumerate`` prints the text of the class table, and no more
        assert main(["ypq", "--enumerate", str(p_max)]) == 0
        assert capsys.readouterr() == (format_table(class_table(p_max)) + "\n", "")


class TestReport:
    def test_golden_dossier_values(self):
        report = ypq_report(YpqParams(3, 1))
        assert report.circle == (2, 4, -3, -3)
        assert report.weight_sum == 0
        assert report.free
        assert report.reeb == (4, 2, 3, 3)
        assert report.change_of_basis == ((1, -1), (2, 4))
        assert report.reduced_weights.rows == ((2, 0, 3, 3), (1, 1, 0, 0))
        assert (report.hirzebruch_index, report.ramification) == (2, 3)
        assert report.branch_locus == (
            "branch divisors E and F with ramification index 3"
        )
        assert report.quotient_pair == (1, 2)
        assert report.kahler_coefficients == (3, 2)
        assert report.reeb_minimum == Fraction(3, 4)
        assert report.quotient_reeb_minimum == 1
        assert report.equivalence_class == 3
        assert report.class_size == 2
        assert report.maximal_torus_lower_bound == 2

    def test_record_serialization(self):
        record = ypq_report(YpqParams(3, 1)).to_record()
        assert record["p"] == 3 and record["q"] == 1
        assert record["circle_weights"] == [2, 4, -3, -3]
        assert record["reeb_minimum"] == "3/4"
        assert record["quotient_reeb_minimum"] == "1"
        assert record["reduced_weights"] == [[2, 0, 3, 3], [1, 1, 0, 0]]
        assert record["class_size"] == 2
        # Everything must be JSON-serializable as-is.
        import json

        json.dumps(record)

    def test_report_requires_free_action(self):
        with pytest.raises(InvalidToricParameterError, match="stabilizer"):
            ypq_report(YpqParams(6, 3))

    def test_quotient_reeb_minimum_is_always_one(self):
        # The quotient generator pairs to exactly 1 on the entire level set,
        # so its vertex minimum is 1 for every member.
        for params in ALL_PAIRS:
            assert vertex_minimum(params, quotient_reeb_weights(params)) == 1

    def test_format_dossier(self):
        text = format_dossier(ypq_report(YpqParams(3, 1)))
        assert text.startswith("Y^(3,1)")
        assert "circle weights" in text
        assert "(2, 4, -3, -3)" in text
        assert "index 2, ramification 3" in text
        assert "3/4" in text

    def test_format_class_table(self):
        text = format_table(class_table(6))
        lines = text.splitlines()
        assert len(lines) == 5
        assert lines[0] == "p = 2  class size 1  (2,1)"
        assert "class size 4" in lines[3]
        assert "(6,1) (6,5)" in lines[4]

    def test_format_empty_class_table(self):
        assert format_table({}) == ""
