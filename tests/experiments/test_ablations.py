"""Tests for the ablation experiments (tiny scale, shared cache)."""

import pytest

from repro.core.config import ExperimentConfig
from repro.experiments import ablations

CONFIG = ExperimentConfig(scale="tiny", term_subsets=(100, 1000))


class TestSamplingAblation:
    def test_grid_shape(self):
        table = ablations.sampling_ablation(CONFIG)
        assert table.columns == ("Classifier", "NO", "SUB", "SMOTE")
        assert len(table.rows) == 3

    def test_all_aucs_valid(self):
        table = ablations.sampling_ablation(CONFIG)
        for row in table.rows:
            assert all(0.0 <= v <= 1.0 for v in row[1:])


class TestTrustrankAblation:
    def test_rows_per_damping_and_seed(self):
        table = ablations.trustrank_ablation(CONFIG, dampings=(0.7, 0.85))
        assert len(table.rows) == 4  # 2 dampings x 2 seed variants


class TestNggParameterAblation:
    def test_ranks_swept(self):
        table = ablations.ngg_parameter_ablation(CONFIG, ranks=(3, 4))
        assert [row[0] for row in table.rows] == ["n=3", "n=4"]


class TestRankingCombinerAblation:
    def test_three_combiners(self):
        table = ablations.ranking_combiner_ablation(CONFIG)
        assert len(table.rows) == 3
        values = dict(table.rows)
        assert all(0.0 <= v <= 1.0 for v in values.values())

    def test_cumulative_not_worse_than_network_only(self):
        values = dict(ablations.ranking_combiner_ablation(CONFIG).rows)
        assert (
            values["textRank + networkRank (paper)"]
            >= values["networkRank only"] - 0.05
        )


class TestRepresentationAblation:
    def test_three_representations(self):
        table = ablations.representation_ablation(CONFIG)
        assert len(table.rows) == 3
        assert all(row[1] > 0.8 for row in table.rows)


class TestTrustAlgorithmAblation:
    def test_both_algorithms_work(self):
        table = ablations.trust_algorithm_ablation(CONFIG)
        values = {row[0]: row[1] for row in table.rows}
        assert set(values) == {"TrustRank (paper)", "EigenTrust [18]"}
        assert all(v > 0.7 for v in values.values())


class TestLabelNoiseAblation:
    def test_degrades_gracefully(self):
        table = ablations.label_noise_ablation(
            CONFIG, noise_rates=(0.0, 0.3)
        )
        for row in table.rows:
            clean, noisy = row[1], row[2]
            assert clean >= noisy - 0.05  # noise never helps (much)
            assert clean > 0.9


class TestReviewEffortExperiment:
    def test_system_between_ideal_and_random(self):
        table = ablations.review_effort_experiment(CONFIG)
        values = {row[0]: row[1] for row in table.rows}
        assert (
            values["ideal (oracle queue)"]
            <= values["system ranking (paper model)"]
            <= values["random queue (unassisted)"] + 1e-9
        )


class TestAuxiliarySitesAblation:
    def test_two_graph_variants(self):
        table = ablations.auxiliary_sites_ablation(CONFIG)
        assert len(table.rows) == 2
        assert all(0.0 <= row[1] <= 1.0 for row in table.rows)


class TestTermSelectionAblation:
    def test_budget_sweep_shape(self):
        table = ablations.term_selection_ablation(CONFIG, budgets=(10, 50))
        assert len(table.rows) == 2
        for row in table.rows:
            assert 0.0 <= row[1] <= 1.0
            assert 0.0 <= row[2] <= 1.0

    def test_policies_converge_at_generous_budget(self):
        table = ablations.term_selection_ablation(CONFIG, budgets=(50,))
        row = table.rows[0]
        assert abs(row[1] - row[2]) < 0.1


class TestSeedStability:
    def test_spread_row_appended(self):
        table = ablations.seed_stability_experiment(CONFIG, seeds=(7, 11))
        assert len(table.rows) == 3
        assert table.rows[-1][0] == "spread (max-min)"

    def test_per_seed_values_in_range(self):
        table = ablations.seed_stability_experiment(CONFIG, seeds=(7, 11))
        for row in table.rows[:-1]:
            assert 0.0 <= row[1] <= 1.0
            assert 0.0 <= row[2] <= 1.0
            assert 0.0 <= row[3] <= 1.0


class TestGrayZoneExperiment:
    def test_gray_scores_between_classes(self):
        table = ablations.gray_zone_experiment(CONFIG, n_gray=4)
        scores = {row[0]: row[1] for row in table.rows}
        assert (
            scores["illegitimate (unseen)"]
            < scores["potentially legitimate (gray)"]
            < scores["legitimate (unseen)"]
        )
