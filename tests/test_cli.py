"""End-to-end tests of the command-line interface."""

import json

import pytest

from promptrefine.cli import GEN_FLAGS, build_parser, main
from promptrefine.data import GeneratorConfig, LongTailDataset, load_features, save_features
from promptrefine.model import ModelDims
from promptrefine.training import TrainConfig


def write_config(path, **over):
    cfg = TrainConfig(
        dims=ModelDims(d0=5, d=8, v=4, c=6, heads=2, ffn=12, tau=0.5),
        embedding={"mode": "random", "path": None, "m": 7, "seed": 0},
        epochs=1, batch_size=8, learning_rate=1e-3, weight_decay=1e-4, seed=0,
    )
    d = cfg.to_dict()
    d.update(over)
    path.write_text(json.dumps(d))
    return d


def gen_args(out, classes=6, tokens=4, feat_dim=5, n_max=25):
    return ["gen-data", "--out", str(out), "--classes", str(classes),
            "--n-max", str(n_max), "--exponent", "1.0", "--tokens", str(tokens),
            "--feat-dim", str(feat_dim), "--cooccur", "0.2", "--noise", "0.5",
            "--seed", "0", "--test-per-class", "4"]


class TestGenData:
    def test_writes_both_splits(self, tmp_path, capsys):
        assert main(gen_args(tmp_path / "data")) == 0
        out = capsys.readouterr().out
        assert "train.cprf" in out and "test.cprf" in out
        train = load_features(tmp_path / "data" / "train.cprf")
        test = load_features(tmp_path / "data" / "test.cprf")
        assert train.c == test.c == 6
        assert len(test) == 6 * 4

    def test_every_generator_field_has_a_flag_defaulting_to_it(self):
        assert sorted(GEN_FLAGS.values()) == sorted(vars(GeneratorConfig()))
        args = build_parser().parse_args(["gen-data", "--out", "x"])
        got = {name: getattr(args, flag.replace("-", "_")) for flag, name in GEN_FLAGS.items()}
        assert got == vars(GeneratorConfig())

    def test_bad_flag_values_fail_with_json_error(self, tmp_path, capsys):
        rc = main(["gen-data", "--out", str(tmp_path), "--classes", "0"])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert "c must be" in payload["message"]


class TestTrainEval:
    @pytest.fixture()
    def data_dir(self, tmp_path):
        d = tmp_path / "data"
        assert main(gen_args(d)) == 0
        return d

    def test_train_then_eval(self, tmp_path, data_dir, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        rc = main(["train", "--config", str(cfg_path), "--data", str(data_dir),
                   "--out", str(tmp_path / "run")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "final checkpoint" in out
        ckpt = tmp_path / "run" / "checkpoint_final.cprc"
        assert ckpt.exists()

        report_path = tmp_path / "report.json"
        rc = main(["eval", "--checkpoint", str(ckpt),
                   "--data", str(data_dir / "test.cprf"),
                   "--report", str(report_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "map_total" in out
        payload = json.loads(report_path.read_text())
        assert set(payload) >= {"per_class_ap", "map_total", "map_head",
                                "map_medium", "map_tail"}

    def test_eval_without_report_names_skipped_classes_and_writes_nothing(
            self, tmp_path, data_dir, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path)
        assert main(["train", "--config", str(cfg_path), "--data", str(data_dir),
                     "--out", str(tmp_path / "run")]) == 0
        # the test split without class 2: its rows that keep another positive
        test = load_features(data_dir / "test.cprf")
        labels = test.labels.copy()
        labels[:, 2] = 0
        keep = labels.any(axis=1)
        no_2 = tmp_path / "no_class_2.cprf"
        save_features(LongTailDataset(test.features[keep], labels[keep], test.class_names), no_2)
        capsys.readouterr()
        before = sorted(tmp_path.rglob("*"))
        rc = main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint_final.cprc"),
                   "--data", str(no_2)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "skipped classes (no positives): [2]" in out
        assert "report" not in out
        assert sorted(tmp_path.rglob("*")) == before

    def test_train_resume_flag(self, tmp_path, data_dir, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, epochs=2)
        assert main(["train", "--config", str(cfg_path), "--data", str(data_dir),
                     "--out", str(tmp_path / "a")]) == 0
        rc = main(["train", "--config", str(cfg_path), "--data", str(data_dir),
                   "--out", str(tmp_path / "b"),
                   "--resume", str(tmp_path / "a" / "checkpoint_epoch_000.cprc")])
        assert rc == 0
        capsys.readouterr()

    def test_missing_config_is_reported(self, tmp_path, data_dir, capsys):
        rc = main(["train", "--config", str(tmp_path / "nope.json"),
                   "--data", str(data_dir), "--out", str(tmp_path / "run")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "FileNotFoundError"

    def test_config_with_typo_key_is_reported(self, tmp_path, data_dir, capsys):
        cfg_path = tmp_path / "cfg.json"
        d = write_config(cfg_path)
        d["learning_rte"] = 0.1
        cfg_path.write_text(json.dumps(d))
        rc = main(["train", "--config", str(cfg_path), "--data", str(data_dir),
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "FileFormatError"
        assert payload["message"] == f"{cfg_path}: unknown keys ['learning_rte']"

    def test_eval_wrong_file_type(self, tmp_path, data_dir, capsys):
        rc = main(["eval", "--checkpoint", str(data_dir / "train.cprf"),
                   "--data", str(data_dir / "test.cprf")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "FileFormatError"


class TestGradcheck:
    def test_pass_and_exit_zero(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, dims={"d0": 4, "d": 8, "v": 3, "c": 4,
                                     "heads": 2, "ffn": 8, "tau": 0.5},
                     embedding={"mode": "random", "path": None, "m": 5, "seed": 1})
        rc = main(["gradcheck", "--config", str(cfg_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("PASS")
        assert "max relative error" in out

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("flag", ["eps", "tolerance"])
    def test_flags_that_cannot_judge_are_refused(self, tmp_path, capsys, flag, value):
        """Refused before the config is read: the config file does not exist."""
        rc = main(["gradcheck", "--config", str(tmp_path / "missing.json"),
                   f"--{flag}={value}"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        payload = json.loads(captured.err.strip())
        assert payload["error"] == "ValueError"
        assert f"--{flag} must be a finite number > 0" in payload["message"]

    def test_oversized_model_is_reported(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_config(cfg_path, dims={"d0": 64, "d": 128, "v": 8, "c": 32,
                                     "heads": 4, "ffn": 256, "tau": 0.5},
                     embedding={"mode": "random", "path": None, "m": 64, "seed": 0})
        rc = main(["gradcheck", "--config", str(cfg_path)])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert "capped" in payload["message"]
