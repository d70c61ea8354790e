import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optex.model import (
    PRESETS,
    Design,
    FactorGrid,
    Term,
    TermSet,
    default_weight,
    expand_preset,
    label_tally,
    model_matrices,
    monomial_matrix,
    termset_from_exponents,
    treatment_counts,
    treatment_labels,
)

from evaluators import evaluate_term, pe_df_with_each, replication_summary


def comb(n, k):
    return math.comb(n, k)


class TestFactorGrid:
    def test_levels_equally_spaced_on_unit_interval(self):
        g = FactorGrid.regular(1, 5)
        assert np.allclose(g.factor_values(0), [-1, -0.5, 0, 0.5, 1])
        g2 = FactorGrid.regular(1, 2)
        assert list(g2.factor_values(0)) == [-1.0, 1.0]
        g3 = FactorGrid.regular(1, 3)
        assert list(g3.factor_values(0)) == [-1.0, 0.0, 1.0]

    def test_grid_strictly_increasing_and_spans(self):
        for lev in range(2, 9):
            v = FactorGrid.regular(1, lev).factor_values(0)
            assert v[0] == -1.0 and v[-1] == 1.0
            assert (np.diff(v) > 0).all()
            assert np.allclose(np.diff(v), 2.0 / (lev - 1))

    def test_mixed_levels(self):
        g = FactorGrid.regular(3, [2, 3, 5])
        assert g.levels == (2, 3, 5)
        assert g.n_candidates == 30

    @settings(max_examples=60)
    @given(st.lists(st.integers(2, 12), min_size=1, max_size=4), st.data())
    def test_every_monomial_lies_in_the_unit_interval(self, levels, data):
        # The screen's certificate takes one move to raise no entry of
        # diag(W'W) by more than 1: every entry of a W-row [1 | X1 | X2]
        # must lie in [-1, 1].
        grid = FactorGrid(tuple(levels))
        exponents = np.array(data.draw(st.lists(
            st.lists(st.integers(0, 6), min_size=grid.k, max_size=grid.k),
            min_size=1, max_size=8)))
        rows = np.array(list(itertools.islice(
            itertools.product(*(range(lev) for lev in levels)), 4096)))
        X = monomial_matrix(grid.value_columns(rows), exponents)
        assert np.all(np.abs(X) <= 1.0)
        assert all(grid.factor_values(j)[[0, -1]].tolist() == [-1.0, 1.0]
                   for j in range(grid.k))

    def test_too_few_levels_rejected(self):
        with pytest.raises(ValueError, match="needs >=2 levels"):
            FactorGrid.regular(2, 1)
        with pytest.raises(ValueError):
            FactorGrid.regular(2, [3])


class TestPresets:
    def test_main_effects_k2(self):
        ts = expand_preset("main_effects", 2)
        assert [t.exponents for t in ts.terms] == [(1, 0), (0, 1)]
        assert len(ts) == 2

    def test_second_order_k3_has_nine_terms(self):
        assert len(expand_preset("second_order", 3)) == 9

    def test_cubic_plus_third_order_k3_has_ten_terms(self):
        ts = expand_preset(["cubic_terms", "third_order_terms"], 3)
        assert len(ts) == 10

    def test_ordering_degree_then_leading_factor(self):
        ts = expand_preset("second_order", 2)
        assert [t.exponents for t in ts.terms] == [
            (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    @pytest.mark.parametrize("k", range(2, 10))
    def test_preset_cardinalities(self, k):
        assert len(expand_preset("second_order", k)) == 2 * k + comb(k, 2)
        assert len(expand_preset("third_order_terms", k)) == comb(k, 3) + k * (k - 1)

    # each preset by definition, over exponents 0..3 of every factor
    BRUTE = {
        "main_effects": lambda e: sum(e) == 1,
        "quadratic_terms": lambda e: sorted(e)[-1:] == [2] and sum(e) == 2,
        "linear_interactions": lambda e: e.count(1) == 2 and sum(e) == 2,
        "second_order": lambda e: 1 <= sum(e) <= 2,
        "cubic_terms": lambda e: sorted(e)[-1:] == [3] and sum(e) == 3,
        "third_order_terms": lambda e: sum(e) == 3 and max(e) <= 2,
    }

    @pytest.mark.parametrize("name", sorted(BRUTE))
    @pytest.mark.parametrize("k", range(1, 7))
    def test_preset_matches_its_definition(self, name, k):
        want = {e for e in itertools.product(range(4), repeat=k) if self.BRUTE[name](list(e))}
        if not want:
            with pytest.raises(ValueError, match="needs more than"):
                expand_preset(name, k)
        else:
            assert expand_preset(name, k).exponent_set() == want

    @pytest.mark.parametrize("name, terms", [
        ("main_effects", [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        ("quadratic_terms", [(2, 0, 0), (0, 2, 0), (0, 0, 2)]),
        ("linear_interactions", [(1, 1, 0), (1, 0, 1), (0, 1, 1)]),
        ("second_order", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (1, 0, 1),
                          (0, 2, 0), (0, 1, 1), (0, 0, 2)]),
        ("cubic_terms", [(3, 0, 0), (0, 3, 0), (0, 0, 3)]),
        ("third_order_terms", [(2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1), (1, 0, 2),
                               (0, 2, 1), (0, 1, 2)]),
    ])
    def test_preset_term_order_k3(self, name, terms):
        assert [t.exponents for t in expand_preset(name, 3).terms] == terms

    def test_preset_names_are_the_table(self):
        assert tuple(PRESETS) == tuple(TestPresets.BRUTE)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown model preset"):
            expand_preset("fourth_order", 3)

    def test_preset_too_small_k(self):
        with pytest.raises(ValueError):
            expand_preset("linear_interactions", 1)
        with pytest.raises(ValueError):
            expand_preset("third_order_terms", 1)

    def test_quadratic_weight_convention(self):
        assert default_weight((2, 0)) == 0.25
        assert default_weight((0, 0, 2)) == 0.25
        assert default_weight((1, 0)) == 1.0
        assert default_weight((1, 1)) == 1.0
        assert default_weight((2, 1)) == 1.0
        assert default_weight((3, 0)) == 1.0
        ts = expand_preset("second_order", 2)
        assert [t.weight for t in ts.terms] == [1.0, 1.0, 0.25, 1.0, 0.25]


class TestTermSet:
    def test_duplicate_exponents_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TermSet((Term((1, 0)), Term((1, 0))))

    def test_intercept_rejected(self):
        with pytest.raises(ValueError, match="degree >= 1"):
            Term((0, 0), 1.0)

    @pytest.mark.parametrize("exponents", [(1.5,), (1.0,), (math.nan,), (math.inf,), (True,),
                                           (-1,), ("1",)])
    def test_non_integer_exponents_rejected(self, exponents):
        # before: an exponent 1.5 was truncated to 1, so [[1.5]] silently became x1
        with pytest.raises(ValueError, match="exponents must be non-negative integers"):
            termset_from_exponents([list(exponents)], 1)
        with pytest.raises(ValueError, match="exponents must be non-negative integers"):
            Term(exponents, 1.0)

    @pytest.mark.parametrize("weight", [math.nan, math.inf, 0.0, -1.0, True, "1"])
    def test_bad_weight_rejected(self, weight):
        # before: Term((1,), nan) was accepted, since nan <= 0 is False
        with pytest.raises(ValueError, match="term weight must be a finite positive number"):
            Term((1,), weight)

    def test_numpy_exponents_and_weights_are_stored_as_python_numbers(self):
        term = Term(np.array([2, 0]), np.float64(0.5))
        assert term == Term((2, 0), 0.5) and type(term.exponents[0]) is int
        assert type(term.weight) is float
        assert Term((2, 0)).weight == 0.25  # the default weight

    def test_explicit_exponent_vectors(self):
        ts = termset_from_exponents([[2, 0], [0, 2]], 2)
        assert [t.weight for t in ts.terms] == [0.25, 0.25]
        with pytest.raises(ValueError, match="length"):
            termset_from_exponents([[1, 0, 0]], 2)


class TestEvaluateTerm:
    def setup_method(self):
        self.grid = FactorGrid.regular(2, 3)
        self.design = Design.from_indices([[0, 2], [2, 0]], self.grid)

    def test_linear_identity(self):
        col = evaluate_term(Term((1, 0)), self.design, self.grid)
        assert list(col) == [-1.0, 1.0]

    def test_square(self):
        col = evaluate_term(Term((2, 0)), self.design, self.grid)
        assert list(col) == [1.0, 1.0]

    def test_triple_product_on_five_level_grid(self):
        grid = FactorGrid.regular(3, 5)
        design = Design.from_indices([[0, 3, 4]], grid)  # (-1, 0.5, 1)
        col = evaluate_term(Term((1, 1, 1)), design, grid)
        assert col[0] == pytest.approx(-0.5)

    def test_multiplicative_in_exponents(self):
        rng = np.random.default_rng(5)
        grid = FactorGrid.regular(3, 5)
        design = Design.from_indices(rng.integers(0, 5, size=(12, 3)), grid)
        for _ in range(20):
            e1 = rng.integers(0, 3, size=3)
            e2 = rng.integers(0, 3, size=3)
            if e1.sum() == 0 or e2.sum() == 0 or (e1 + e2).sum() == 0:
                continue
            c1 = evaluate_term(Term(e1), design, grid)
            c2 = evaluate_term(Term(e2), design, grid)
            c12 = evaluate_term(Term(e1 + e2), design, grid)
            assert np.allclose(c12, c1 * c2, rtol=1e-12)


class TestModelMatrices:
    def test_two_level_full_factorial_main_effects(self):
        grid = FactorGrid.regular(2, 2)
        design = Design.from_indices([[0, 0], [0, 1], [1, 0], [1, 1]], grid)
        X1, X2 = model_matrices(design, expand_preset("main_effects", 2),
                                TermSet(tuple()), grid)
        assert np.array_equal(X1, [[-1, -1], [-1, 1], [1, -1], [1, 1]])
        assert X2.shape == (4, 0)

    def test_second_order_dimensions(self):
        grid = FactorGrid.regular(3, 5)
        rng = np.random.default_rng(0)
        design = Design.from_indices(rng.integers(0, 5, size=(36, 3)), grid)
        X1, _ = model_matrices(design, expand_preset("second_order", 3),
                               TermSet(tuple()), grid)
        assert X1.shape == (36, 9)


class TestLabelsAndReplication:
    def test_table_style_labels_k3_l5(self):
        grid = FactorGrid.regular(3, 5)
        design = Design.from_indices([[4, 2, 3], [0, 0, 0], [4, 4, 4]], grid)
        assert list(treatment_labels(design.settings, grid)) == [114, 1, 125]

    def test_two_level_k4_label(self):
        grid = FactorGrid.regular(4, 2)
        design = Design.from_indices([[1, 0, 0, 0]], grid)  # (1,-1,-1,-1)
        assert treatment_labels(design.settings, grid)[0] == 9

    def test_label_round_trip_bijection(self):
        for levels in ((3, 3), (2, 3, 4), (5, 5)):
            grid = FactorGrid.regular(len(levels), list(levels))
            total = grid.n_candidates
            seen = set()
            for c in range(total):
                idx, rem = [], c
                for j in range(grid.k):
                    stride = int(np.prod(levels[j + 1:], dtype=int)) if j + 1 < grid.k else 1
                    idx.append(rem // stride)
                    rem %= stride
                design = Design.from_indices([idx], grid)
                label = treatment_labels(design.settings, grid)[0]
                assert label == c + 1
                seen.add(label)
            assert seen == set(range(1, total + 1))

    def test_df_counts_from_known_split(self):
        grid = FactorGrid.regular(3, 5)
        rng = np.random.default_rng(3)
        distinct = rng.choice(125, size=20, replace=False)
        rows = np.concatenate([distinct, rng.choice(distinct, size=16)])
        idx = np.column_stack([rows // 25, (rows // 5) % 5, rows % 5])
        summary = replication_summary(Design.from_indices(idx, grid), grid, p=9)
        assert summary.t == 20
        assert summary.pe_df == 16
        assert summary.lof_df == 10

    def test_all_distinct_rows(self):
        grid = FactorGrid.regular(2, 4)
        idx = np.column_stack([np.arange(12) // 4, np.arange(12) % 4])
        summary = replication_summary(Design.from_indices(idx, grid), grid, p=4)
        assert summary.pe_df == 0
        assert summary.lof_df == 7

    def test_lof_df_floored_at_zero(self):
        grid = FactorGrid.regular(2, 2)
        design = Design.from_indices([[0, 0], [0, 0], [1, 1]], grid)
        summary = replication_summary(design, grid, p=4)
        assert summary.lof_df == 0

    def test_df_identity_fuzz(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = int(rng.integers(2, 7))
            lev = int(rng.integers(2, 5))
            grid = FactorGrid.regular(k, lev)
            n = int(rng.integers(8, 30))
            p = int(rng.integers(1, 6))
            design = Design.from_indices(rng.integers(0, lev, size=(n, k)), grid)
            s = replication_summary(design, grid, p)
            assert s.pe_df == n - s.t
            if s.t >= p + 1:
                assert s.pe_df + s.lof_df == n - p - 1

    def test_pe_df_with_each_move_matches_whole_designs(self):
        # the screen's per-move pure-error df equals a count over each design
        rng = np.random.default_rng(12)
        for _ in range(200):
            kept = rng.integers(1, 30, size=int(rng.integers(1, 15)))
            moves = np.arange(0, 33)
            expected = [treatment_counts(np.append(kept, m), p=2)[1] for m in moves]
            assert list(pe_df_with_each(kept, moves)) == expected


    def test_label_tally_equals_np_unique(self):
        # the screen's tally of a design's labels, no labels included
        rng = np.random.default_rng(15)
        for n in [0, 1, 2, 5, 36]:
            for _ in range(50):
                labels = rng.integers(0, 10, size=n)
                distinct, counts = label_tally(np.sort(labels))
                expected = np.unique(labels, return_counts=True)
                assert np.array_equal(distinct, expected[0])
                assert np.array_equal(counts, expected[1])


class TestDesign:
    def test_out_of_range_index_rejected(self):
        grid = FactorGrid.regular(2, 3)
        with pytest.raises(ValueError, match="column 2"):
            Design.from_indices([[0, 3]], grid)

    def test_settings_read_only(self):
        grid = FactorGrid.regular(2, 3)
        design = Design.from_indices([[0, 1]], grid)
        with pytest.raises(ValueError):
            design.settings[0, 0] = 2
