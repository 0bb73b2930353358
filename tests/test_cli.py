import importlib.util
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bellcheck
from bellcheck import cli, engine, jointprob, quantum
from bellcheck.core import Behavior
from bellcheck.jointprob import JointProbability, statistics_of
from bellcheck.streams import BLOCK_SIZE, draw_counts
from batch_models import tilted_model


def run_cli(args):
    return cli.main(args)


class TestRun:
    def test_json_report_roundtrip(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(["run", "--model", "dice-coin", "--n", "20000",
                        "--seed", "42", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["model"] == "dice-coin"
        assert report["n_per_series"] == 20000
        assert report["seed"] == 42
        assert set(report["correlations"]) == {"e11", "e12", "e21", "e22"}
        c = report["correlations"]
        assert report["s_star"] == c["e11"] - c["e12"] + c["e21"] + c["e22"]
        assert report["bound_satisfied"] is True
        assert abs(report["s_star"]) <= 3 * report["hoeffding_epsilon"] * 4
        assert report["mi"]["holds"] is True
        for freqs in report["class_frequencies"].values():
            assert abs(sum(freqs.values()) - 1.0) < 1e-9

    def test_json_fields_match_in_process_report(self, tmp_path):
        from bellcheck.engine import chsh_report, count_experiment
        from bellcheck.zoo import get_model

        out = tmp_path / "report.json"
        run_cli(["run", "--model", "dice-coin", "--n", "8000", "--seed", "31", "--out", str(out)])
        parsed = json.loads(out.read_text())
        rep = chsh_report(count_experiment(get_model("dice-coin"), 8000, seed=31))
        assert parsed["correlations"]["e11"] == rep.table.e11
        assert parsed["correlations"]["e12"] == rep.table.e12
        assert parsed["correlations"]["e21"] == rep.table.e21
        assert parsed["correlations"]["e22"] == rep.table.e22
        assert parsed["s_star"] == rep.s_star
        assert parsed["hoeffding_epsilon"] == rep.hoeffding_epsilon
        assert parsed["bound_satisfied"] == rep.bound_satisfied
        assert parsed["violation_p_value"] == rep.violation_p_value
        assert parsed["violation_significant"] == rep.violation_significant
        assert parsed["n_per_series"] == rep.n_per_series

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run_cli(["run", "--model", "dice-coin", "--n", "5000",
                            "--seed", "7", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_quantum_run(self, tmp_path):
        out = tmp_path / "q.json"
        code = run_cli(["run", "--model", "quantum", "--n", "100000",
                        "--seed", "3", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["angles"] == [0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4]
        assert abs(report["s_star"] + 2 * math.sqrt(2)) < 4 * report["hoeffding_epsilon"]
        assert report["bound_satisfied"] is False
        assert report["violation_significant"] is True
        assert "class_frequencies" not in report

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "report.csv"
        run_cli(["run", "--model", "dice-coin", "--n", "1000", "--seed", "0",
                 "--format", "csv", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "pair_i,pair_k,n,e_hat,hoeffding_eps"
        assert len(lines) == 7
        assert lines[5] == "s_star,bound_2,tsirelson_2sqrt2,violation_p_value,violation_significant"
        for line, pair in zip(lines[1:5], ((1, 1), (1, 2), (2, 1), (2, 2))):
            fields = line.split(",")
            assert (int(fields[0]), int(fields[1])) == pair
            assert int(fields[2]) == 1000
            float(fields[3]); float(fields[4])
        summary = lines[6].split(",")
        assert summary[1] == "2"
        assert float(summary[2]) == pytest.approx(2 * math.sqrt(2))
        assert (float(summary[3]), summary[4]) == (1.0, "false")

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "model": "dice-coin", "n_per_series": 1000, "seed": 5, "format": "json",
        }))
        out = tmp_path / "r.json"
        run_cli(["run", "--config", str(config), "--seed", "9", "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["seed"] == 9  # flag wins
        assert report["n_per_series"] == 1000  # from config

    def test_unknown_model_is_config_error(self, tmp_path):
        assert run_cli(["run", "--model", "telepathy"]) == cli.EXIT_CONFIG

    def test_missing_model_is_config_error(self):
        assert run_cli(["run", "--n", "10"]) == cli.EXIT_CONFIG

    def test_bad_config_file_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        assert run_cli(["run", "--config", str(config)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: config file {config}: ")

    def test_model_failure_exit_code(self, monkeypatch):
        from bellcheck.core import LhvModel
        from bellcheck.zoo import MODEL_FACTORIES

        def broken():
            return LhvModel(
                name="broken",
                respond_alice=lambda i, lam: 1,
                respond_bob=lambda i, lam: 1,
                sample_lambda=lambda rng, n, pair: (_ for _ in ()).throw(KeyError("boom")),
                declares_mi=True,
            )

        monkeypatch.setitem(MODEL_FACTORIES, "broken", broken)
        assert run_cli(["run", "--model", "broken", "--n", "10"]) == cli.EXIT_MODEL

    def test_n_past_one_word_block_indices_exits_2_at_once(self):
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "bellcheck.cli", "run", "--model", "quantum", "--n", "70368744177665"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == cli.EXIT_CONFIG
        assert "n_per_series" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("model", ["dice-coin", "cosine-sign", "quantum"])
    def test_n_up_to_two_to_the_46_runs_and_one_more_exits_2(self, model, monkeypatch, capsys):
        # every run keeps the tag path's limit of 2**32 blocks of BLOCK_SIZE
        drawn = []

        def recording(*args):
            drawn.append(draw_counts(*args))
            return drawn[-1]

        monkeypatch.setattr(engine, "draw_counts", recording)
        monkeypatch.setattr(quantum, "draw_counts", recording)
        n = BLOCK_SIZE << 32
        assert n == 2**46
        assert run_cli(["run", "--model", model, "--n", str(n), "--seed", "46"]) == 0
        assert json.loads(capsys.readouterr().out)["n_per_series"] == n
        [counts] = drawn
        assert all(min(c) >= 0 and sum(c) == n for c in counts.values())
        assert run_cli(["run", "--model", model, "--n", str(n + 1)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "configuration error: n_per_series must be at most 70368744177664 "
            "(2**32 blocks of 16384 trials), got 4294967297 blocks\n"
        )
        assert len(drawn) == 1

    def test_angles_rejected_for_plain_models(self):
        assert run_cli(["run", "--model", "dice-coin", "--n", "10",
                        "--angles", "0,1,2,3"]) == cli.EXIT_CONFIG


class TestConfigValidation:
    """Bad config values end in exit code 2, never a traceback."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"angles": [0, 1, 2]},
            {"angles": [0, 1, 2, 3, 4]},
            {"angles": "0,1,2,3"},
            {"angles": [0, 1, "2", 3]},
            {"angles": [0, 1, True, 3]},
            {"angles": {"a1": 0}},
            {"angles": [10**400, 0, 0, 0]},
            {"n_per_series": 100.7},
            {"n_per_series": True},
            {"n_per_series": [100]},
            {"n_per_series": None},
            {"seed": True},
            {"seed": 1.5},
            {"seed": {"value": 1}},
            {"model": ["quantum"]},
            {"output": 5},
        ],
    )
    def test_bad_value_is_config_error(self, tmp_path, capsys, overrides):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": "quantum", "n_per_series": 100, **overrides}))
        assert run_cli(["run", "--config", str(config)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "Traceback" not in err

    def test_integral_values_accepted(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "model": "quantum", "n_per_series": 100.0, "seed": 7, "angles": [0, 1.5, 0.5, 2],
        }))
        assert run_cli(["run", "--config", str(config)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_per_series"] == 100
        assert report["seed"] == 7
        assert report["angles"] == [0.0, 1.5, 0.5, 2.0]

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"n_per_series": "abc"}, "n_per_series"),
            ({"seed": "x1"}, "seed"),
            ({"interleave": True}, "interleave"),
            ({"interleave": False}, "interleave"),
            ({"interleave": None}, "interleave"),
            ({"angles": [10**400, 0, 0, 0]}, "angles"),
            ({"model": "dice-coin", "n": 10, "seeed": 5}, "seeed"),
        ],
    )
    def test_message_names_the_field(self, tmp_path, capsys, overrides, field):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": "quantum", "n_per_series": 100, **overrides}))
        assert run_cli(["run", "--config", str(config)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and field in err

    @pytest.mark.parametrize("angles", ["a,b,c,d", "0,0,0,inf"])
    def test_bad_angles_flag_is_named(self, capsys, angles):
        assert run_cli(["run", "--model", "quantum", "--n", "10", "--angles", angles]) == cli.EXIT_CONFIG
        assert "--angles" in capsys.readouterr().err

    def test_deeply_nested_config_names_the_file(self, tmp_path, capsys):
        config = tmp_path / "deep.json"
        config.write_text("[" * 200_000 + "]" * 200_000)
        assert run_cli(["run", "--config", str(config)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and str(config) in err

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_angle_difference_overflow_names_the_angles(self, tmp_path, capsys, via):
        # every angle is finite, but a1 - b2 overflows to inf
        angles = [1e308, 0, 0, -1e308]
        argv = ["run", "--model", "quantum", "--n", "10"]
        if via == "flag":
            argv += ["--angles", ",".join(map(str, angles))]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"angles": angles}))
            argv += ["--config", str(config)]
        assert run_cli(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "1e+308 and -1e+308" in err

    def test_cosine_sign_takes_angles_whose_difference_overflows(self, capsys):
        # its responses subtract each angle from a grid direction, never
        # one angle from another
        assert run_cli(["run", "--model", "cosine-sign", "--n", "10", "--angles", "1e308,0,0,-1e308"]) == 0

    def test_interleave_flag_is_rejected(self):
        # the four series always run in SETTING_PAIRS order; there is no
        # dispatch option, on the command line or in a config file
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--model", "quantum", "--n", "10", "--interleave"])
        assert exc.value.code == cli.EXIT_CONFIG

    def test_defaults_come_from_the_config_type(self):
        config = cli._load_config(cli.build_parser().parse_args(["run", "--model", "quantum"]))
        assert config == cli.ExperimentConfig(model="quantum")


class TestBound:
    def test_dice_coin(self, capsys):
        assert run_cli(["bound", "--model", "dice-coin"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["series_s"] == {"exact": "0", "float": 0.0}
        assert out["series_table"]["e11"]["exact"] == "1"
        assert out["mi_holds_exact"] is True
        classes = {c["behavior"]: c for c in out["single_distribution"]["classes"]}
        assert classes["+-++"]["weight"] == "1/2"
        assert classes["+-++"]["c"] == -2
        assert classes["+++-"]["c"] == 2

    def test_conspiracy_series_vs_single_distribution(self, capsys):
        assert run_cli(["bound", "--model", "conspiracy"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["series_s"]["float"] == 4.0
        assert abs(out["single_distribution"]["s"]["float"]) <= 2
        assert out["mi_holds_exact"] is False

    def test_quantum_rejected(self):
        assert run_cli(["bound", "--model", "quantum"]) == cli.EXIT_CONFIG

    def test_mi_verdict_is_integer_equality(self, capsys, monkeypatch):
        # pairs (1,2), (2,1) and (2,2) tilt one weight by 10^-15
        monkeypatch.setattr(cli, "get_model", lambda name, angles=None: tilted_model())
        assert run_cli(["bound", "--model", "dice-coin"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["model"] == "dice-coin" and out["mi_holds_exact"] is False


class TestFineCheck:
    def test_pr_box(self, capsys):
        assert run_cli(["fine-check", "--correlations", "1,1,1,-1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["feasible"] is False
        assert out["violated_facet"]["signs"] == [1, 1, 1, -1]
        assert out["violated_facet"]["value"]["exact"] == "4"
        assert out["chsh_criterion"]["all_pass"] is False

    def test_dice_stats_with_marginals(self, capsys):
        assert run_cli(["fine-check", "--correlations", "1,0,0,-1",
                        "--marginals", "1,0,1,0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["feasible"] is True
        assert sum(Fraction(v) for v in out["witness"].values()) == 1
        assert out["chsh_criterion"]["max_facet_value"]["exact"] == "2"

    def test_decimal_inputs_are_exact(self, capsys):
        assert run_cli(["fine-check", "--correlations", "0.5,0.25,-0.25,0.5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["feasible"] is True

    def test_invalid_stats_rejected(self):
        assert run_cli(["fine-check", "--correlations", "1,1,1"]) == cli.EXIT_CONFIG
        assert run_cli(["fine-check", "--correlations", "3,0,0,0"]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["--correlations", "1/0,0,0,0"], "--correlations"),
            (["--correlations", "0,0,0,0", "--marginals", "0,0,0,1/0"], "--marginals"),
            (["--correlations", "0,abc,0,0"], "--correlations"),
            (["--correlations", "0,0,0,0", "--marginals", ""], "--marginals"),
            (["--correlations", "0,0,0,0", "--marginals", " "], "--marginals"),
        ],
    )
    def test_unparsable_value_names_the_flag(self, capsys, argv, flag):
        assert run_cli(["fine-check", *argv]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and flag in err

    def test_zero_denominator_exits_2_without_traceback(self):
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "bellcheck.cli", "fine-check", "--correlations", "1/0,0,0,0"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == cli.EXIT_CONFIG
        assert "zero denominator" in proc.stderr and "Traceback" not in proc.stderr


class TestBoundedNumbers:
    """fine-check numbers are bounded before Fraction parses them."""

    def test_huge_exponent_exits_2_quickly(self):
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "bellcheck.cli", "fine-check", "--correlations", "1e-400000000,0,0,0"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == cli.EXIT_CONFIG
        assert "--correlations" in proc.stderr and "exponent" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("text", ["1e2001", "1E-2_001", "0." + "1" * 2000, "1/" + "3" * 2000])
    def test_out_of_bound_values_are_config_errors(self, text, capsys):
        assert run_cli(["fine-check", "--correlations", "0,0,0,0", "--marginals", f"{text},0,0,0"]) == cli.EXIT_CONFIG
        assert "--marginals" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["1e-2000", "25e-2", "0." + "3" * 1990, "1/" + "3" * 1990])
    def test_values_within_bounds_still_parse(self, text, capsys):
        assert run_cli(["fine-check", "--correlations", f"{text},0,0,0"]) == 0
        assert json.loads(capsys.readouterr().out)["feasible"] is True


class TestDenominatorBound:
    """The eight values' common denominator is bounded right after parsing,
    so every number fine-check prints fits Python's int-to-str limit."""

    # 10**2100 - 1, the largest accepted denominator, as a product of two
    # coprime factors that each fit the 2000-character limit
    LOW, HIGH = 10**1050 - 1, 10**1050 + 1

    def test_largest_accepted_denominator_renders(self, capsys):
        assert self.LOW * self.HIGH == 10**cli._MAX_DENOMINATOR_DIGITS - 1
        rng = random.Random(2100)
        values = [Fraction(1, self.LOW), Fraction(1, self.HIGH)] + [
            Fraction(rng.randrange(-10**940, 10**940), rng.choice((self.LOW, self.HIGH)))
            for _ in range(6)
        ]
        argv = ["fine-check", "--correlations=" + ",".join(map(str, values[:4])),
                "--marginals=" + ",".join(map(str, values[4:]))]
        assert run_cli(argv) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["feasible"] is True
        # the witness's longest number comes within 200 digits of the limit
        assert 4100 <= max(map(len, re.findall(r"\d+", out))) <= 4300

    @pytest.mark.parametrize(
        "argv",
        [
            # 10**2100, one past the largest accepted denominator
            ["--correlations", f"1/{2**2100},1/{5**2100},0,0"],
            ["--correlations", "0,0,0,0", "--marginals", f"0,1/{2**2100},0,1/{5**2100}"],
            # eight 1991-digit denominators, each value within its own
            # bounds; their lcm has 15,919 digits
            ["--correlations", ",".join(f"1/{10**1990 + k}" for k in (1, 3, 7, 9)),
             "--marginals", ",".join(f"1/{10**1990 + k}" for k in (11, 13, 17, 19))],
        ],
        ids=["correlations", "marginals", "eight-values"],
    )
    def test_denominator_past_the_bound_exits_2(self, capsys, argv):
        assert run_cli(["fine-check", *argv]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (
            "configuration error: --correlations/--marginals: common denominator "
            f"exceeds {cli._MAX_DENOMINATOR_DIGITS} digits\n"
        )


class TestThreadsVariableNotRead:
    @pytest.mark.parametrize("value", ["0", "-1", "two", "1.5"])
    def test_former_bad_value_runs_as_unset(self, value, monkeypatch, capsys):
        args = ["run", "--model", "dice-coin", "--n", "10"]
        monkeypatch.delenv("BELLCHECK_THREADS", raising=False)
        assert run_cli(args) == 0
        unset = capsys.readouterr()
        monkeypatch.setenv("BELLCHECK_THREADS", value)
        assert run_cli(args) == 0
        assert capsys.readouterr() == unset


GOLDEN_FINE_CHECK = json.loads(
    (Path(__file__).parent / "data" / "fine_check_golden.json").read_text()
)


@pytest.mark.parametrize("case", GOLDEN_FINE_CHECK, ids=[c["case"] for c in GOLDEN_FINE_CHECK])
def test_fine_check_golden_output(capsys, case):
    assert run_cli(case["argv"]) == 0
    assert capsys.readouterr().out == case["stdout"]


def _witness_statistics(witness: dict):
    weights = {Behavior.from_compact(k): Fraction(v) for k, v in witness.items()}
    assert all(w > 0 for w in weights.values())
    stats = statistics_of(JointProbability(weights))
    return list(stats.correlations.as_tuple()) + list(stats.marginals())


@pytest.mark.parametrize("case", GOLDEN_FINE_CHECK, ids=[c["case"] for c in GOLDEN_FINE_CHECK])
def test_fine_check_golden_differs_from_parent_only_in_witness(case):
    # The closed-form witness changed some outputs recorded with the
    # simplex's witness; those cases keep the old output as parent_stdout.
    # Everything but the witness must match, and each new witness must
    # reproduce the statistics exactly.
    new = json.loads(case["stdout"])
    parent = json.loads(case.get("parent_stdout", case["stdout"]))
    witness, parent_witness = new.pop("witness"), parent.pop("witness")
    assert new == parent
    assert (witness is None) == (parent_witness is None)
    if witness is not None:
        args = cli.build_parser().parse_args(case["argv"])
        es = cli._parse_fraction_list(args.correlations, 4, "--correlations")
        ms = cli._parse_fraction_list(args.marginals or "0,0,0,0", 4, "--marginals")
        assert _witness_statistics(witness) == es + ms
        assert _witness_statistics(parent_witness) == es + ms


@pytest.mark.parametrize("case", GOLDEN_FINE_CHECK, ids=[c["case"] for c in GOLDEN_FINE_CHECK])
def test_fine_check_evaluates_the_facets_once(monkeypatch, capsys, case):
    # the verdict, the certificate and the printed chsh_criterion block all
    # come from one evaluation
    calls = []
    original = jointprob._max_facet

    def counted(es):
        calls.append(es)
        return original(es)

    monkeypatch.setattr(jointprob, "_max_facet", counted)
    assert run_cli(case["argv"]) == 0
    assert capsys.readouterr().out == case["stdout"]
    assert len(calls) == 1


def test_every_traced_name_resolves(monkeypatch):
    # perfbench's traced run wraps these names and stops if one is gone
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    for module, attr, _ in tracing.PATCHES:
        assert hasattr(importlib.import_module(f"bellcheck.{module}"), attr), (module, attr)


class TestParserReuse:
    """main() builds its parser once; consecutive calls share no state."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_marginals_do_not_carry_over(self, capsys):
        assert run_cli(["fine-check", "--correlations=1,0,0,-1", "--marginals=1,0,1,0"]) == 0
        assert _witness_statistics(json.loads(capsys.readouterr().out)["witness"])[4:] == [1, 0, 1, 0]
        assert run_cli(["fine-check", "--correlations=1,0,0,-1"]) == 0
        assert _witness_statistics(json.loads(capsys.readouterr().out)["witness"])[4:] == [0, 0, 0, 0]

    def test_out_does_not_carry_over(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run_cli(["run", "--model", "dice-coin", "--n", "100", "--out", str(out)]) == 0
        capsys.readouterr()
        out.unlink()
        assert run_cli(["run", "--model", "dice-coin", "--n", "100"]) == 0
        assert json.loads(capsys.readouterr().out)["model"] == "dice-coin"
        assert not out.exists()


class TestGhzCheck:
    def test_four_system(self, capsys):
        assert run_cli(["ghz-check"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["satisfiable"] is True
        assert out["assignments_checked"] == 256
        assert out["n_constraints"] == 4
        assert len(out["witness"]) == 8

    def test_five_system(self, capsys):
        assert run_cli(["ghz-check", "--fifth"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["satisfiable"] is False
        assert out["witness"] is None

    def test_degenerate_phi(self):
        assert run_cli(["ghz-check", "--phi", "0"]) == cli.EXIT_CONFIG

    def test_witness_keys_name_every_variable(self, capsys):
        # phi = 2*pi - 1e-9: A(phi) and A(2*phi) agree to 6 significant digits
        phi = 6.283185306179586
        assert run_cli(["ghz-check", "--phi", repr(phi)]) == 0
        witness = json.loads(capsys.readouterr().out)["witness"]
        variables = sorted(bellcheck.ghz.check_satisfiable(bellcheck.ghz_constraint_system(phi)).witness.items())
        assert len(witness) == len(variables) == 8
        for key, ((party, angle), value) in zip(witness, variables):
            match = re.fullmatch(r"([A-D])\((.+)\)", key)
            assert match[1] == party and abs(float(match[2]) - angle) <= 1e-12, (key, angle)
            assert witness[key] == value

    def test_phi_whose_double_overflows_is_named(self, capsys):
        # 1e308 is finite, but the constraint angle 2*phi is not
        assert run_cli(["ghz-check", "--phi", "1e308"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "phi = 1e+308" in err and "2*phi" in err and "factor angle" not in err

    def test_phi_beyond_the_angle_grid_exits_2(self, capsys):
        # from 2**13 on, k * 2*pi no longer lands on the variable of angle 0
        assert run_cli(["ghz-check", "--phi", repr(1304 * 2 * math.pi)]) == cli.EXIT_CONFIG
        assert "2**13" in capsys.readouterr().err

    @pytest.mark.parametrize("phi", ["5000", "-5000"])
    def test_phi_whose_double_leaves_the_angle_grid_is_named(self, phi, capsys):
        # phi itself is below 2**13, but the constraint angle 2*phi is not
        assert run_cli(["ghz-check", "--phi", phi]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"phi = {float(phi)!r}" in err and "2*phi" in err and "2**13" in err
        assert "angle 10000.0" not in err and "angle -10000.0" not in err


class TestZooCommand:
    def test_lists_models(self, capsys):
        assert run_cli(["zoo"]) == 0
        out = capsys.readouterr().out
        for name in ("conspiracy", "cosine-sign", "dice-coin", "quantum"):
            assert name in out


def test_runs_without_scipy():
    # scipy is a test-only dependency: the float feasibility path, the
    # fine-check command and the parity checker must not import it
    src = Path(cli.__file__).resolve().parents[1]
    code = """
import contextlib, io, json, math, sys
sys.modules["scipy"] = None
import bellcheck as bc
from bellcheck import cli, jointprob
result = bc.jp_feasible(bc.BehaviorStatistics(bc.CorrelationTable(0.5, 0.1, -0.2, -0.5), 0.1, 0.0, -0.1, 0.0))
assert result.feasible and all(isinstance(w, float) for w in result.witness.weights.values())
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    assert cli.main(["fine-check", "--correlations", "1,1,1,-1"]) == 0
assert json.loads(buf.getvalue())["feasible"] is False
assert not bc.check_satisfiable(bc.ghz_constraint_system(math.pi / 2, include_fifth=True)).satisfiable
assert "scipy" not in [m.split(".")[0] for m, v in sys.modules.items() if v is not None]
print("ok")
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_package_version_matches_pyproject():
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    assert re.search(r'^version = "(.*)"$', pyproject, re.M).group(1) == bellcheck.__version__


GOLDEN_ARGVS = [c["argv"] for c in json.loads((Path(__file__).parent / "data" / "run_golden.json").read_text())] + [
    c["argv"] for c in GOLDEN_FINE_CHECK]

#: (case id, argv) beyond the golden commands: help, command names that
#: are not one, and the faults argparse reports
DISPATCH_CASES = [
    ("empty", []),
    ("help", ["-h"]),
    ("help before a command", ["-h", "run"]),
    ("command help", ["run", "-h"]),
    ("command help by prefix", ["fine-check", "--he"]),
    ("help among faults", ["run", "-h", "--bogus"]),
    ("unknown command", ["bogus"]),
    ("abbreviated command", ["fine"]),
    ("option before the command", ["--model", "dice-coin", "run"]),
    ("bare run", ["run"]),
    ("bare bound", ["bound"]),
    ("unknown flag", ["run", "--bogus"]),
    ("unknown flags and values", ["run", "--bogus", "1", "--model", "dice-coin", "-x"]),
    ("abbreviated flag", ["run", "--mod", "dice-coin", "--se", "3"]),
    ("abbreviated flag after an = flag", ["fine-check", "--correlations=0,0,0,0", "--m", "0,0,0,0"]),
    ("bad int", ["run", "--n", "x"]),
    ("bad choice", ["run", "--format", "xml"]),
    ("flag without its value", ["run", "--model"]),
    ("value that reads as a flag", ["fine-check", "--correlations", "-1,0,0,1"]),
    ("extra positional", ["run", "--model", "dice-coin", "extra"]),
    ("double dash", ["run", "--", "--model", "dice-coin"]),
    ("double dash first", ["--", "run"]),
    ("negative seed", ["run", "--model", "dice-coin", "--seed", "-1"]),
    ("missing required option", ["fine-check"]),
    ("missing required option with another", ["fine-check", "--marginals=0,0,0,0"]),
    ("zoo x", ["zoo", "x"]),
    ("flag given twice", ["bound", "--model", "dice-coin", "--model", "conspiracy"]),
    ("phi", ["ghz-check", "--phi", "-0.5", "--fifth"]),
]


def _parsed(parse, argv, capsys):
    """What ``parse(argv)`` gives: ("namespace", the namespace) or ("exit",
    its exit code), and what it wrote to stdout and stderr."""
    try:
        result = "namespace", parse(argv)
    except SystemExit as exc:
        result = "exit", exc.code
    return result, capsys.readouterr()


class TestDispatch:
    """main() parses through cli.parse_args, which sends an argv that starts
    with a command's name straight to that command's parser. Every argv
    must give what the top-level parser's parse_args gives: the namespace,
    or the exit code, stdout and stderr."""

    @pytest.mark.parametrize("argv", GOLDEN_ARGVS + [c[1] for c in DISPATCH_CASES],
                             ids=[" ".join(a) for a in GOLDEN_ARGVS] + [c[0] for c in DISPATCH_CASES])
    def test_dispatch_matches_the_top_level_parser(self, argv, capsys):
        direct = _parsed(cli.parse_args, list(argv), capsys)
        assert direct == _parsed(cli.build_parser().parse_args, list(argv), capsys)
        if direct[0][0] == "namespace":
            assert repr(direct[0][1]) == repr(cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [c["argv"] for c in GOLDEN_FINE_CHECK[:2]] + [["run", "--bogus"], ["zoo"]])
    def test_a_command_argv_skips_the_top_level_pass(self, argv, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the top-level parser parsed a command argv")

        monkeypatch.setattr(cli.build_parser(), "parse_known_args", refuse)
        assert _parsed(cli.parse_args, argv, capsys)[0][0] == ("exit" if "--bogus" in argv else "namespace")

    def test_main_reads_sys_argv_and_takes_any_sequence(self, monkeypatch, capsys):
        assert run_cli(("zoo",)) == 0
        listed = capsys.readouterr()
        monkeypatch.setattr(sys, "argv", ["bellcheck", "zoo"])
        assert cli.main() == 0
        assert capsys.readouterr() == listed
        monkeypatch.setattr(sys, "argv", ["bellcheck", "zoo", "x"])
        with pytest.raises(SystemExit) as info:
            cli.main()
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith("bellcheck: error: unrecognized arguments: x\n")
