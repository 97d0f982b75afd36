"""The shared spec-string grammar in engine.spec (CLI + study loader)."""

import pytest

from repro.engine import (AttackSpec, DefenseSpec, VictimSpec,
                          parse_attack_spec, parse_defense_spec,
                          parse_spec_string, parse_victim_spec)


class TestParseSpecString:
    def test_kind_only(self):
        assert parse_spec_string("radius") == ("radius", 0.0, {})

    def test_kind_and_percentile(self):
        assert parse_spec_string("radius:0.1") == ("radius", 0.1, {})

    def test_params_only(self):
        kind, pct, params = parse_spec_string("knn_sanitizer::k=7")
        assert (kind, pct) == ("knn_sanitizer", 0.0)
        assert params == {"k": 7}

    def test_full_form(self):
        kind, pct, params = parse_spec_string(
            "loss_filter:0.15:n_rounds=2,foo=bar")
        assert (kind, pct) == ("loss_filter", 0.15)
        assert params == {"n_rounds": 2, "foo": "bar"}

    def test_quoted_values(self):
        _, _, params = parse_spec_string(
            "label-flip::strategy='near boundary',note=\"a,b\"")
        assert params == {"strategy": "near boundary", "note": "a,b"}

    def test_nested_params_become_tuples(self):
        _, _, params = parse_spec_string(
            "mixed_defense::percentiles=(0.05,0.2),"
            "probabilities=[0.5,0.5],nested=[[1,2],[3,4]]")
        assert params["percentiles"] == (0.05, 0.2)
        assert params["probabilities"] == (0.5, 0.5)
        assert params["nested"] == ((1, 2), (3, 4))
        # Every value is hashable -> usable as canonical spec params.
        assert DefenseSpec("mixed_defense", 0.0, params)

    def test_empty_kind_rejected(self):
        with pytest.raises(ValueError, match="empty kind"):
            parse_spec_string(":0.1")
        with pytest.raises(ValueError, match="empty kind"):
            parse_spec_string("")

    def test_bad_percentile_rejected(self):
        with pytest.raises(ValueError, match="not a number"):
            parse_spec_string("radius:lots")

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_spec_string("radius:0.1:k")


class TestParseDefenseSpec:
    def test_none_sentinel(self):
        assert parse_defense_spec("none") is None
        assert parse_defense_spec("  none ") is None

    def test_known_kind(self):
        assert parse_defense_spec("slab_filter:0.15") == \
            DefenseSpec("slab_filter", 0.15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown defense kind"):
            parse_defense_spec("fortress:0.1")

    def test_out_of_range_percentile_rejected(self):
        with pytest.raises(ValueError, match="percentile"):
            parse_defense_spec("radius:1.5")


class TestParseAttackSpec:
    def test_clean_sentinel(self):
        assert parse_attack_spec("clean") is None

    def test_known_kind_with_params(self):
        spec = parse_attack_spec("label-flip::strategy=near_boundary")
        assert spec == AttackSpec("label-flip", 0.0,
                                  (("strategy", "near_boundary"),))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown attack kind"):
            parse_attack_spec("warp")


class TestParseVictimSpec:
    def test_none_passthrough(self):
        assert parse_victim_spec(None) is None

    def test_kind_and_params(self):
        assert parse_victim_spec("svm:epochs=60") == \
            VictimSpec("svm", (("epochs", 60),))
        assert parse_victim_spec("logistic") == VictimSpec("logistic")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown victim kind"):
            parse_victim_spec("oracle")


class TestCliSharesTheGrammar:
    """The CLI wrappers translate ValueError -> SystemExit, nothing else."""

    def test_wrappers_delegate(self):
        from repro.experiments.cli import _study_from_args, build_parser

        def grid(*sets):
            argv = ["cross-game"]
            for item in sets:
                argv += ["--set", item]
            return _study_from_args(build_parser().parse_args(argv)).grid

        g = grid("defenses=radius:0.1", "attacks=boundary:0.05",
                 "victim=logistic")
        assert g.defenses == (parse_defense_spec("radius:0.1"),)
        assert g.attacks == (parse_attack_spec("boundary:0.05"),)
        assert g.victims == (parse_victim_spec("logistic"),)
        with pytest.raises(SystemExit, match="unknown defense kind"):
            grid("defenses=fortress:0.1")

    def test_study_loader_shares_the_grammar(self):
        from repro.study import ScenarioGrid

        grid = ScenarioGrid(defenses=("knn_sanitizer::k=7",),
                            attacks=("label-flip::strategy=near_boundary",))
        assert grid.defenses[0] == parse_defense_spec("knn_sanitizer::k=7")
        assert grid.attacks[0] == \
            parse_attack_spec("label-flip::strategy=near_boundary")
