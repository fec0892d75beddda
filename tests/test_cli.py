"""CLI wiring: config layering, commands, artifacts, exit codes."""

import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dgsum
from dgsum import cli
from dgsum.cli import RunConfig, build_parser, main, resolve_config
from dgsum.compressor import CompressorConfig
from dgsum.errors import ConfigError
from dgsum.hetgraph import GraphConfig
from dgsum.mgat import MgatConfig
from dgsum.rouge import corpus_rouge
from dgsum.text_model import TextModelConfig
from dgsum.training import ModelConfig, TrainConfig
from conftest import all_tokens, generated_records, write_cluster_file, write_embedding_file
from oracles import (head_arrays, rouge_l_summary_oracle, rouge_n_oracle, summarize_greedy,
                     to_dot_oracle, to_json_oracle)

TOY_FLAGS = ["--d-model", "16", "--n-heads", "2", "--ffn-dim", "24",
             "--n-layers-enc", "1", "--n-layers-dec", "1",
             "--attention-window", "4", "--max-out-len", "12",
             "--mgat-layers", "1", "--mgat-heads", "1", "--mgat-head-dim", "4",
             "--embedding-dim", "8", "--min-freq", "1", "--epochs", "1",
             "--patience", "999", "--seed", "7"]


# every subcommand's options, frozen: option -> dest of each valued option,
# and option -> (dest, const) of each switch
VALUED_OPTIONS = {
    "--config": "config", "--data": "data", "--dev": "dev", "--out": "out",
    "--seed": "seed", "--precision": "precision", "--embeddings": "embeddings",
    "--embedding-dim": "embedding_dim", "--sentence-embeddings": "sentence_embeddings",
    "--max-input-len": "max_input_len", "--min-freq": "min_freq",
    "--we-threshold": "we_threshold", "--ss-threshold": "ss_threshold",
    "--d-model": "d_model", "--n-layers-enc": "n_layers_enc",
    "--n-layers-dec": "n_layers_dec", "--n-heads": "n_heads", "--ffn-dim": "ffn_dim",
    "--attention-window": "attention_window", "--max-out-len": "max_out_len",
    "--dropout": "dropout", "--mgat-layers": "mgat_layers", "--mgat-heads": "mgat_heads",
    "--mgat-head-dim": "mgat_head_dim", "--k": "k", "--beta": "beta",
    "--label-smoothing": "label_smoothing", "--lr": "lr", "--epochs": "epochs",
    "--patience": "patience", "--accum": "accum", "--eval-every": "eval_every",
    "--beam-width": "beam_width"}
SWITCHES = {"--no-mgat": ("no_mgat", True), "--no-residual": ("mgat_residual", False),
            "--renorm-mask": ("renorm_mask", True),
            "--no-compressor": ("no_compressor", True),
            "--no-length-norm": ("length_norm", False)}
COMMAND_OPTIONS = {"train": {}, "graph": {}, "summarize": {"--model": "model"},
                   "ksweep": {"--model": "model", "--k-values": "k_values"},
                   "eval": {"--generated": "generated", "--references": "references"}}


def read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


class TestParser:
    def test_options_equal_the_frozen_inventory(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(COMMAND_OPTIONS)
        for command, extra in COMMAND_OPTIONS.items():
            got = {tuple(a.option_strings): (a.dest, type(a).__name__, a.const)
                   for a in sub.choices[command]._actions if a.dest != "help"}
            want = {(opt,): (dest, "_StoreAction", None)
                    for opt, dest in {**VALUED_OPTIONS, **extra}.items()}
            want.update({(opt,): (dest, "_StoreConstAction", const)
                         for opt, (dest, const) in SWITCHES.items()})
            assert got == want, command
            assert len(got) == 38 + len(extra)

    @pytest.mark.parametrize("switch", sorted(SWITCHES))
    def test_switch_sets_its_field_against_the_default(self, switch):
        dest, const = SWITCHES[switch]
        args = build_parser().parse_args(["train", switch])
        cfg = resolve_config(None, {dest: getattr(args, dest)})
        assert getattr(cfg, dest) is const
        assert getattr(RunConfig(), dest) is not const

    def test_flag_values_take_the_field_type(self):
        args = build_parser().parse_args(["train", "--epochs", "3", "--lr", "1e-3",
                                          "--data", "x.jsonl", "--ss-threshold", "0.4"])
        assert (args.epochs, args.lr, args.data, args.ss_threshold) == (3, 1e-3, "x.jsonl", 0.4)
        assert main(["train", "--epochs", "3.5"]) == 1


class TestConfigResolution:
    def test_defaults(self):
        cfg = resolve_config(None, {})
        assert cfg.beam_width == 5
        assert cfg.beta == 0.5
        assert cfg.label_smoothing == 0.1
        assert cfg.k == 0.5
        assert cfg.max_input_len == 4096
        assert cfg.max_out_len == 512
        assert cfg.embedding_dim == 100
        assert cfg.min_freq == 2
        assert cfg.lr == 3e-4
        assert cfg.patience == 5

    def test_defaults_equal_the_sub_config_defaults(self):
        # each default is written twice: on RunConfig and on the config it feeds
        cfg = RunConfig()
        assert cfg.model_config() == ModelConfig(TextModelConfig(), MgatConfig(),
                                                 CompressorConfig())
        assert cfg.train_config() == TrainConfig()
        assert cfg.graph_config() == GraphConfig()

    def test_file_then_flags_layering(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"beta": 0.7, "k": 0.3}))
        cfg = resolve_config(str(p), {"k": 0.9})
        assert cfg.beta == 0.7   # from file
        assert cfg.k == 0.9      # flag wins

    def test_unknown_keys_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"betta": 0.7}))
        with pytest.raises(ConfigError, match="betta"):
            resolve_config(str(p), {})

    def test_dropout_outside_unit_interval_is_config_error(self, tmp_path, capsys,
                                                           toy_corpus_path,
                                                           toy_embeddings_path):
        for value in ("-0.1", "1.0"):
            rc = main(["train", "--data", str(toy_corpus_path),
                       "--embeddings", str(toy_embeddings_path),
                       "--out", str(tmp_path / value), *TOY_FLAGS, "--dropout", value])
            assert rc == 1, value
            assert "dropout" in capsys.readouterr().err
            assert not (tmp_path / value).exists()

    @pytest.mark.parametrize("layer, named", [
        ({"epochs": "3"}, "'epochs' must be int"), ({"epochs": True}, "'epochs' must be int"),
        ({"lr": "x"}, "'lr' must be float"), ({"no_mgat": 1}, "'no_mgat' must be bool"),
        ({"eval_every": 2.0}, "'eval_every' must be int or null"),
        ([1, 2], "must be a JSON object")])
    def test_config_value_of_the_wrong_type_is_config_error(
            self, tmp_path, capsys, toy_corpus_path, toy_embeddings_path, layer, named):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(layer))
        out = tmp_path / "out"
        assert main(["train", "--config", str(p), "--data", str(toy_corpus_path),
                     "--embeddings", str(toy_embeddings_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()

    def test_config_values_that_fit_their_fields(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"beta": 1, "eval_every": None, "no_mgat": True,
                                 "ss_threshold": None, "embeddings": "v.txt"}))
        cfg = resolve_config(str(p), {})
        assert (cfg.beta, cfg.eval_every, cfg.no_mgat, cfg.embeddings) == (1, None, True, "v.txt")

    def test_sub_config_checks_run_before_any_file_is_read(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "missing.jsonl"),
                   "--embeddings", str(tmp_path / "missing.txt"),
                   "--out", str(tmp_path / "out"), "--d-model", "130"])
        assert rc == 1
        assert "d_model 130 not divisible by n_heads 4" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--beta", "1.5"), ("--beta", "-0.1"), ("--label-smoothing", "1.5"),
        ("--label-smoothing", "1.0"), ("--label-smoothing", "-0.1"), ("--lr", "-0.01"),
        ("--lr", "0"), ("--lr", "nan"), ("--lr", "inf"), ("--epochs", "-1"),
        ("--patience", "0"), ("--accum", "0"), ("--eval-every", "0"),
        ("--d-model", "0"), ("--n-heads", "0"), ("--n-heads", "-4"), ("--ffn-dim", "0"),
        ("--max-out-len", "0"), ("--embedding-dim", "0"), ("--min-freq", "0"),
        ("--min-freq", "-3"), ("--max-input-len", "15"), ("--max-input-len", "8"),
        ("--attention-window", "0"), ("--n-layers-enc", "-1"), ("--n-layers-dec", "-2"),
        ("--seed", "-1"), ("--we-threshold", "nan"), ("--ss-threshold", "inf")])
    def test_bad_training_value_is_config_error_before_data(self, tmp_path, capsys,
                                                           flag, value):
        rc = main(["train", "--data", str(tmp_path / "missing.jsonl"),
                   "--embeddings", str(tmp_path / "missing.txt"),
                   "--out", str(tmp_path / "out"), flag, value])
        assert rc == 1
        assert flag[2:].replace("-", "_") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_beam_width_zero_is_config_error_before_data(self, tmp_path, capsys):
        rc = main(["summarize", "--model", str(tmp_path / "model"),
                   "--data", str(tmp_path / "missing.jsonl"),
                   "--embeddings", str(tmp_path / "missing.txt"),
                   "--out", str(tmp_path / "out.jsonl"), "--beam-width", "0"])
        assert rc == 1
        assert "beam_width" in capsys.readouterr().err

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config(None, {"beta": 1.5})
        with pytest.raises(ConfigError):
            resolve_config(None, {"k": 0.0})
        with pytest.raises(ConfigError):
            resolve_config(None, {"precision": "half"})

    def test_usage_error_exit_code(self):
        assert main(["train"]) == 1  # missing required paths
        assert main(["nope"]) == 1

    def test_data_error_exit_code(self, tmp_path):
        rc = main(["train", "--data", str(tmp_path / "missing.jsonl"),
                   "--embeddings", str(tmp_path / "missing.txt"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2


@pytest.fixture
def trained_model(tmp_path, toy_corpus_path, toy_embeddings_path):
    out = tmp_path / "model"
    rc = main(["train", "--data", str(toy_corpus_path),
               "--embeddings", str(toy_embeddings_path),
               "--out", str(out), *TOY_FLAGS])
    assert rc == 0
    return out


class TestTrain:
    def test_writes_artifacts(self, trained_model):
        for name in ("checkpoint.npz", "vocab.json", "metrics.jsonl", "config.json"):
            assert (trained_model / name).exists(), name

    def test_metric_log_structure(self, trained_model):
        records = read_jsonl(trained_model / "metrics.jsonl")
        steps = [r for r in records if r["kind"] == "step"]
        assert len(steps) == 8  # one epoch over 8 clusters
        for r in steps:
            assert r["total"] == r["l_ce"] * 0.5 + r["l_gs"] * 0.5

    def test_seeded_rerun_reproduces_log(self, tmp_path, toy_corpus_path,
                                         toy_embeddings_path, trained_model):
        out2 = tmp_path / "model2"
        rc = main(["train", "--data", str(toy_corpus_path),
                   "--embeddings", str(toy_embeddings_path),
                   "--out", str(out2), *TOY_FLAGS])
        assert rc == 0
        log1 = (trained_model / "metrics.jsonl").read_text()
        log2 = (out2 / "metrics.jsonl").read_text()
        assert log1 == log2

    def test_every_bad_cluster_is_named_before_training(
            self, tmp_path, toy_corpus_records, toy_embeddings_path, capsys):
        records = with_oversized_cluster(toy_corpus_records)
        records.append(dict(records[4], id="oversized2"))
        data = tmp_path / "mixed.jsonl"
        write_cluster_file(data, records)
        flags = ["--data", str(data), "--embeddings", str(toy_embeddings_path), *TOY_FLAGS]
        out = tmp_path / "model"
        for argv in (["train", *flags, "--out", str(out)],
                     ["ksweep", *flags, "--k-values", "0.3,0.7"]):
            assert main(argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert "'oversized'" in err and "'oversized2'" in err, argv[0]
        assert not out.exists()

    def test_a_dev_set_with_no_summaries_is_a_data_error_before_training(
            self, tmp_path, toy_corpus_path, toy_corpus_records, toy_embeddings_path,
            capsys, monkeypatch):
        fitted = []
        monkeypatch.setattr(cli, "fit", lambda *a, **kw: fitted.append(a))
        dev = tmp_path / "unsummarized.jsonl"
        write_cluster_file(dev, [{k: v for k, v in r.items() if k != "summary"}
                                 for r in toy_corpus_records])
        out = tmp_path / "model"
        assert main(["train", "--data", str(toy_corpus_path), "--dev", str(dev),
                     "--embeddings", str(toy_embeddings_path), "--out", str(out),
                     *TOY_FLAGS]) == 2
        assert f"{dev}: no clusters with summaries to score" in capsys.readouterr().err
        assert fitted == [] and not out.exists()

    def test_resolved_config_echo_reproduces(self, tmp_path, toy_corpus_path,
                                             toy_embeddings_path, trained_model):
        echoed = trained_model / "config.json"
        out3 = tmp_path / "model3"
        rc = main(["train", "--config", str(echoed), "--out", str(out3)])
        assert rc == 0
        assert ((out3 / "metrics.jsonl").read_text()
                == (trained_model / "metrics.jsonl").read_text())

    def test_ablation_flags_train(self, tmp_path, toy_corpus_path, toy_embeddings_path):
        out = tmp_path / "ablated"
        rc = main(["train", "--data", str(toy_corpus_path),
                   "--embeddings", str(toy_embeddings_path), "--out", str(out),
                   "--no-mgat", "--no-compressor", "--beta", "1.0", *TOY_FLAGS])
        assert rc == 0
        cfg = json.loads((out / "config.json").read_text())
        assert cfg["no_mgat"] is True and cfg["no_compressor"] is True
        assert cfg["beta"] == 1.0


class TestSummarize:
    def test_output_counts_and_empty_input(self, tmp_path, trained_model,
                                           toy_corpus_path, toy_embeddings_path):
        out = tmp_path / "hyp.jsonl"
        rc = main(["summarize", "--model", str(trained_model),
                   "--data", str(toy_corpus_path),
                   "--embeddings", str(toy_embeddings_path),
                   "--out", str(out)])
        assert rc == 0
        recs = read_jsonl(out)
        assert len(recs) == 8
        assert all(set(r) == {"id", "summary"} for r in recs)

        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out2 = tmp_path / "hyp2.jsonl"
        rc = main(["summarize", "--model", str(trained_model), "--data", str(empty),
                   "--embeddings", str(toy_embeddings_path), "--out", str(out2)])
        assert rc == 0
        assert read_jsonl(out2) == []

    def test_beam_one_equals_greedy_dev_path(self, tmp_path, trained_model,
                                             toy_corpus_path, toy_embeddings_path):
        out1 = tmp_path / "b1.jsonl"
        rc = main(["summarize", "--model", str(trained_model),
                   "--data", str(toy_corpus_path),
                   "--embeddings", str(toy_embeddings_path),
                   "--out", str(out1), "--beam-width", "1"])
        assert rc == 0
        # greedy reference through the library path
        from dgsum.cli import _load_model
        from dgsum.corpus import load_clusters
        from dgsum.training import prepare_bundle
        cfg = resolve_config(str(trained_model / "config.json"), {})
        vocab, model_cfg, params = _load_model(cfg, str(trained_model))
        resources = cfg.resources(vocab)
        for rec in read_jsonl(out1):
            cluster = next(c for c in load_clusters(toy_corpus_path)
                           if c.id == rec["id"])
            bundle = prepare_bundle(cluster, resources, model_cfg, need_summary=False)
            greedy = summarize_greedy(bundle, params, model_cfg, vocab)
            assert rec["summary"] == " ".join(greedy)

    def test_config_file_beats_stored_and_flag_beats_config_file(self, tmp_path,
                                                                  trained_model):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"beam_width": 1, "patience": 3, "d_model": 32,
                                 "data": "other.jsonl"}))
        cfg = resolve_config(str(p), {"patience": 4, "d_model": 64}, str(trained_model))
        stored = json.loads((trained_model / "config.json").read_text())
        assert (stored["beam_width"], stored["patience"], stored["d_model"]) == (5, 999, 16)
        assert cfg.beam_width == 1     # the config file beats the stored config
        assert cfg.patience == 4       # a flag beats the config file
        assert cfg.d_model == 16       # the stored shape beats both
        assert cfg.seed == 7           # the stored config beats the defaults
        assert cfg.embeddings == stored["embeddings"]
        assert cfg.data == "other.jsonl" and cfg.out is None  # stored paths skipped

    def test_beam_width_from_config_file_or_flag_decodes_alike(
            self, tmp_path, trained_model, toy_corpus_path, toy_embeddings_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"beam_width": 1}))
        flags = ["summarize", "--model", str(trained_model), "--data", str(toy_corpus_path),
                 "--embeddings", str(toy_embeddings_path)]
        by_file, by_flag = tmp_path / "file.jsonl", tmp_path / "flag.jsonl"
        assert main([*flags, "--config", str(p), "--out", str(by_file)]) == 0
        assert main([*flags, "--beam-width", "1", "--out", str(by_flag)]) == 0
        assert read_jsonl(by_file) == read_jsonl(by_flag)

    def test_dim_mismatch_names_parameter(self, tmp_path, trained_model,
                                          toy_corpus_path, toy_embeddings_path):
        cfg_path = trained_model / "config.json"
        stored = json.loads(cfg_path.read_text())
        stored["d_model"] = 32  # incompatible with the checkpoint
        cfg_path.write_text(json.dumps(stored))
        out = tmp_path / "hyp3.jsonl"
        rc = main(["summarize", "--model", str(trained_model),
                   "--data", str(toy_corpus_path),
                   "--embeddings", str(toy_embeddings_path), "--out", str(out)])
        assert rc == 1  # ConfigError names the offending parameter

    def test_bad_cluster_is_named_and_the_good_ones_are_written(
            self, tmp_path, trained_model, toy_corpus_records, toy_embeddings_path, capsys):
        data = tmp_path / "mixed.jsonl"
        write_cluster_file(data, with_oversized_cluster(toy_corpus_records))
        out = tmp_path / "hyp.jsonl"
        rc = main(["summarize", "--model", str(trained_model), "--data", str(data),
                   "--embeddings", str(toy_embeddings_path), "--out", str(out)])
        assert rc == 2
        assert [r["id"] for r in read_jsonl(out)] == [r["id"] for r in toy_corpus_records]
        err = capsys.readouterr().err
        assert "'oversized'" in err and "truncation to 4096 leaves no sentences" in err


def with_oversized_cluster(records):
    """``records`` with a cluster whose first sentence exceeds the 4,096-token
    input budget inserted at index 4."""
    bad = {"id": "oversized", "documents": [" ".join(["storm"] * 4100) + "."],
           "summary": "storm."}
    return records[:4] + [bad] + records[4:]


class TestPrecision:
    """A model runs at its configured precision: the checkpoint keeps its
    dtype, and ``summarize`` casts a checkpoint of the other precision on
    load."""

    def test_single_precision_train_then_summarize(self, tmp_path, toy_corpus_path,
                                                   toy_corpus_records, toy_embeddings_path):
        model = tmp_path / "model"
        rc = main(["train", "--data", str(toy_corpus_path),
                   "--embeddings", str(toy_embeddings_path), "--out", str(model),
                   *TOY_FLAGS, "--precision", "single"])
        assert rc == 0
        with np.load(model / "checkpoint.npz") as ckpt:
            params = [ckpt[name] for name in ckpt.files if name != "__format_version__"]
        assert params and all(a.dtype == np.float32 for a in params)

        out = tmp_path / "hyp.jsonl"  # the stored config.json says single
        rc = main(["summarize", "--model", str(model), "--data", str(toy_corpus_path),
                   "--embeddings", str(toy_embeddings_path), "--out", str(out)])
        assert rc == 0
        assert [r["id"] for r in read_jsonl(out)] == [r["id"] for r in toy_corpus_records]

        cast = tmp_path / "double.jsonl"  # the float32 checkpoint cast up on load
        rc = main(["summarize", "--model", str(model), "--data", str(toy_corpus_path),
                   "--embeddings", str(toy_embeddings_path), "--out", str(cast),
                   "--precision", "double"])
        assert rc == 0
        assert [r["id"] for r in read_jsonl(cast)] == [r["id"] for r in toy_corpus_records]

        data = tmp_path / "mixed.jsonl"
        write_cluster_file(data, with_oversized_cluster(toy_corpus_records))
        rc = main(["summarize", "--model", str(model), "--data", str(data),
                   "--embeddings", str(toy_embeddings_path), "--out", str(tmp_path / "h2.jsonl")])
        assert rc == 2


class TestEval:
    def test_identical_summaries_score_100(self, tmp_path, capsys):
        refs = [{"id": "a", "summary": "storm floods the town."},
                {"id": "b", "summary": "team wins the cup."}]
        p1 = tmp_path / "gen.jsonl"
        p2 = tmp_path / "ref.jsonl"
        write_cluster_file(p1, refs)
        write_cluster_file(p2, refs)
        rc = main(["eval", "--generated", str(p1), "--references", str(p2),
                   "--out", str(tmp_path / "report.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "R-1 100.00" in out and "R-2 100.00" in out and "R-L 100.00" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["r1"] == 1.0 and report["rl"] == 1.0

    def test_disjoint_zero(self, tmp_path, capsys):
        p1 = tmp_path / "gen.jsonl"
        p2 = tmp_path / "ref.jsonl"
        write_cluster_file(p1, [{"id": "a", "summary": "alpha beta"}])
        write_cluster_file(p2, [{"id": "a", "summary": "gamma delta"}])
        rc = main(["eval", "--generated", str(p1), "--references", str(p2)])
        assert rc == 0
        assert "R-1 0.00" in capsys.readouterr().out

    def test_duplicate_id_is_data_error(self, tmp_path, capsys):
        p1 = tmp_path / "gen.jsonl"
        p2 = tmp_path / "ref.jsonl"
        write_cluster_file(p1, [{"id": "a", "summary": "x"}, {"id": "b", "summary": "y"},
                                {"id": "a", "summary": "z"}])
        write_cluster_file(p2, [{"id": "a", "summary": "x"}, {"id": "b", "summary": "y"}])
        assert main(["eval", "--generated", str(p1), "--references", str(p2)]) == 2
        err = capsys.readouterr().err
        assert "gen.jsonl:3" in err and "'a'" in err

    @pytest.mark.parametrize("line", ["5", "[1, 2]", '"text"', "null"])
    def test_line_that_is_not_an_object_is_data_error(self, tmp_path, capsys, line):
        p1 = tmp_path / "gen.jsonl"
        p2 = tmp_path / "ref.jsonl"
        p1.write_text('{"id": "a", "summary": "x"}\n' + line + "\n", encoding="utf-8")
        write_cluster_file(p2, [{"id": "a", "summary": "x"}])
        assert main(["eval", "--generated", str(p1), "--references", str(p2)]) == 2
        err = capsys.readouterr().err
        assert "gen.jsonl:2" in err and "Traceback" not in err

    @pytest.mark.parametrize("summary", [None, 5, ["x"]])
    def test_summary_that_is_not_a_string_is_data_error(self, tmp_path, capsys, summary):
        p1 = tmp_path / "gen.jsonl"
        p2 = tmp_path / "ref.jsonl"
        write_cluster_file(p1, [{"id": "a", "summary": "x"}, {"id": "b", "summary": summary}])
        write_cluster_file(p2, [{"id": "a", "summary": "x"}, {"id": "b", "summary": "None"}])
        assert main(["eval", "--generated", str(p1), "--references", str(p2)]) == 2
        err = capsys.readouterr().err
        assert "gen.jsonl:2: cluster 'b': 'summary' must be a string" in err

    def test_an_empty_reference_set_is_a_data_error(self, tmp_path, capsys):
        p1 = tmp_path / "gen.jsonl"
        p2 = tmp_path / "ref.jsonl"
        p1.write_text("")
        p2.write_text("")
        assert main(["eval", "--generated", str(p1), "--references", str(p2)]) == 2
        captured = capsys.readouterr()
        assert f"{p2}: no summaries to score" in captured.err and captured.out == ""

    def test_id_mismatch_is_data_error(self, tmp_path):
        p1 = tmp_path / "gen.jsonl"
        p2 = tmp_path / "ref.jsonl"
        write_cluster_file(p1, [{"id": "a", "summary": "x"}])
        write_cluster_file(p2, [{"id": "b", "summary": "x"}])
        assert main(["eval", "--generated", str(p1), "--references", str(p2)]) == 2

    def test_corpus_mean_matches_per_cluster_oracle(self):
        generated = {"a": "storm floods the town.", "b": "team wins again."}
        references = {"a": "storm floods town. rain falls.", "b": "the team wins."}
        report = corpus_rouge(generated, references)
        from dgsum.corpus import tokenize
        r1s, rls = [], []
        for cid in generated:
            hyp = [s.lower for s in tokenize(generated[cid])]
            ref = [s.lower for s in tokenize(references[cid])]
            flat_h = [t for s in hyp for t in s]
            flat_r = [t for s in ref for t in s]
            r1s.append(rouge_n_oracle(flat_h, flat_r, 1)[2])
            rls.append(rouge_l_summary_oracle(hyp, ref)[2])
        assert report["r1"] == pytest.approx(np.mean(r1s), abs=1e-12)
        assert report["rl"] == pytest.approx(np.mean(rls), abs=1e-12)


class TestKsweep:
    def test_single_k_rejected(self, toy_corpus_path, toy_embeddings_path):
        rc = main(["ksweep", "--data", str(toy_corpus_path),
                   "--embeddings", str(toy_embeddings_path), "--k-values", "1.0"])
        assert rc == 1

    @pytest.mark.parametrize("with_model", [False, True])
    def test_every_k_is_checked_before_any_work(self, tmp_path, toy_corpus_path,
                                                toy_embeddings_path, capsys, monkeypatch,
                                                request, with_model):
        model = ["--model", str(request.getfixturevalue("trained_model"))] if with_model else []
        work = []
        for name in ("_load_model", "_train_model", "score_summaries"):
            monkeypatch.setattr(cli, name, lambda *a, _name=name, _f=getattr(cli, name):
                                work.append(_name) or _f(*a))
        out = tmp_path / "sweep.jsonl"
        assert main(["ksweep", *model, "--data", str(toy_corpus_path),
                     "--embeddings", str(toy_embeddings_path), *TOY_FLAGS,
                     "--k-values", "0.5,0.7,1.5", "--out", str(out)]) == 1
        assert "compression ratio k must be in (0, 1], got 1.5" in capsys.readouterr().err
        assert work == [] and not out.exists()

    def test_a_scoring_set_with_no_summaries_is_a_data_error(
            self, tmp_path, trained_model, toy_corpus_records, toy_embeddings_path, capsys,
            monkeypatch):
        loaded = []
        monkeypatch.setattr(cli, "_load_model", lambda *a: loaded.append(a))
        data = tmp_path / "unsummarized.jsonl"
        write_cluster_file(data, [{k: v for k, v in r.items() if k != "summary"}
                                  for r in toy_corpus_records])
        out = tmp_path / "sweep.jsonl"
        assert main(["ksweep", "--model", str(trained_model), "--data", str(data),
                     "--embeddings", str(toy_embeddings_path), "--k-values", "0.3,0.7",
                     "--out", str(out)]) == 2
        assert f"{data}: no clusters with summaries to score" in capsys.readouterr().err
        assert loaded == [] and not out.exists()

    def test_rows_match_k_list(self, tmp_path, trained_model, toy_corpus_path,
                               toy_embeddings_path, capsys):
        out = tmp_path / "sweep.jsonl"
        rc = main(["ksweep", "--model", str(trained_model),
                   "--data", str(toy_corpus_path),
                   "--embeddings", str(toy_embeddings_path),
                   "--k-values", "0.2,0.5,0.8", "--out", str(out)])
        assert rc == 0
        rows = read_jsonl(out)
        assert [r["k"] for r in rows] == [0.2, 0.5, 0.8]
        stdout = capsys.readouterr().out
        assert "trend" in stdout
        for row in rows:
            assert {"k", "mean_length", "r1", "r2", "rl"} <= set(row)

    def test_bad_cluster_is_named_and_the_rows_are_written(
            self, tmp_path, trained_model, toy_corpus_path, toy_corpus_records,
            toy_embeddings_path, capsys):
        data = tmp_path / "mixed.jsonl"
        write_cluster_file(data, with_oversized_cluster(toy_corpus_records))
        flags = ["--model", str(trained_model), "--embeddings", str(toy_embeddings_path),
                 "--k-values", "0.3,0.7"]
        good, mixed = tmp_path / "good.jsonl", tmp_path / "mixed_rows.jsonl"
        assert main(["ksweep", *flags, "--data", str(toy_corpus_path), "--out", str(good)]) == 0
        capsys.readouterr()
        assert main(["ksweep", *flags, "--data", str(data), "--out", str(mixed)]) == 2
        assert read_jsonl(mixed) == read_jsonl(good)
        err = capsys.readouterr().err
        assert "'oversized'" in err and "truncation to 4096 leaves no sentences" in err

    @staticmethod
    def _summarize_and_eval(tmp_path, model, data, embeddings, k):
        hyp, report = tmp_path / f"hyp{k}.jsonl", tmp_path / f"report{k}.json"
        assert main(["summarize", "--model", str(model), "--data", str(data),
                     "--embeddings", str(embeddings), "--k", str(k),
                     "--out", str(hyp)]) == 0
        assert main(["eval", "--generated", str(hyp), "--references", str(data),
                     "--out", str(report)]) == 0
        return json.loads(report.read_text())

    def test_model_rows_are_summarize_then_eval(self, tmp_path, trained_model,
                                                toy_corpus_path, toy_embeddings_path):
        out = tmp_path / "sweep.jsonl"
        assert main(["ksweep", "--model", str(trained_model),
                     "--data", str(toy_corpus_path),
                     "--embeddings", str(toy_embeddings_path),
                     "--k-values", "0.3,0.7", "--out", str(out)]) == 0
        for row in read_jsonl(out):
            report = self._summarize_and_eval(tmp_path, trained_model, toy_corpus_path,
                                              toy_embeddings_path, row["k"])
            assert row == {"k": row["k"], **{key: report[key] for key in
                                             ("mean_length", "r1", "r2", "rl")}}

    def test_training_rows_are_train_then_eval(self, tmp_path, toy_corpus_path,
                                               toy_embeddings_path, toy_corpus_records):
        # on this dev set `train` keeps the step-2 checkpoint, on the training
        # set the step-8 one, so a sweep that ignored --dev would differ
        dev = tmp_path / "dev.jsonl"
        write_cluster_file(dev, toy_corpus_records[2:5])
        flags = ["--data", str(toy_corpus_path), "--embeddings", str(toy_embeddings_path),
                 "--dev", str(dev), "--eval-every", "2", *TOY_FLAGS, "--lr", "3e-3"]
        out = tmp_path / "sweep.jsonl"
        assert main(["ksweep", *flags, "--k-values", "0.3,0.7", "--out", str(out)]) == 0
        for row in read_jsonl(out):
            model = tmp_path / f"model{row['k']}"
            assert main(["train", *flags, "--k", str(row["k"]), "--out", str(model)]) == 0
            report = self._summarize_and_eval(tmp_path, model, toy_corpus_path,
                                              toy_embeddings_path, row["k"])
            assert row == {"k": row["k"], **{key: report[key] for key in
                                             ("mean_length", "r1", "r2", "rl")}}

    def test_k1_equals_no_compressor_except_soft_mask(self, trained_model,
                                                      toy_corpus_path,
                                                      toy_embeddings_path):
        """k=1 keeps every node (same selection/positions as --no-compressor);
        only the soft-mask scaling differs."""
        import dataclasses
        from dgsum.cli import _load_model
        from dgsum.compressor import CompressorConfig
        from dgsum.corpus import load_clusters
        from dgsum.training import encode_compress, prepare_bundle
        cfg = resolve_config(str(trained_model / "config.json"), {})
        vocab, model_cfg, params = _load_model(cfg, str(trained_model))
        resources = cfg.resources(vocab)
        cluster = load_clusters(toy_corpus_path)[0]
        bundle = prepare_bundle(cluster, resources, model_cfg, need_summary=False)

        k1_cfg = dataclasses.replace(model_cfg, comp=CompressorConfig(k=1.0))
        q_k1, pos_k1, t, sel_k1 = encode_compress(bundle, params, k1_cfg)
        off_cfg = dataclasses.replace(model_cfg, no_compressor=True)
        q_off, pos_off, t_off, sel_off = encode_compress(bundle, params, off_cfg)
        assert np.array_equal(sel_k1, sel_off)
        assert np.array_equal(pos_k1, pos_off)
        scaled = q_off.data * t.data[:, None]
        assert np.allclose(q_k1.data, scaled, atol=1e-12)


class TestGraphCommand:
    def test_exports_and_validation(self, tmp_path, toy_corpus_path,
                                    toy_embeddings_path):
        out = tmp_path / "graphs"
        rc = main(["graph", "--data", str(toy_corpus_path),
                   "--embeddings", str(toy_embeddings_path), "--out", str(out),
                   "--embedding-dim", "8"])
        assert rc == 0
        dots = list(out.glob("*.dot"))
        jsons = [p for p in out.glob("*.json")]
        assert len(dots) == 8 and len(jsons) == 8
        assert (out / "validation.txt").read_text() == ""

    # the last four: a NUL byte, <id>.json over 255 bytes of UTF-8, a lone surrogate
    @pytest.mark.parametrize("bad_id", ["../escaped", "sub/x", "", ".", "..", "a\0b",
                                        "x" * 251, "\u00e9" * 126, "a\ud800"])
    def test_path_like_ids_rejected(self, tmp_path, capsys, toy_embeddings_path, bad_id):
        data = tmp_path / "data.jsonl"
        write_cluster_file(data, [{"id": "ok", "documents": ["storm hits the coast."]},
                                  {"id": bad_id, "documents": ["team wins the final."]}])
        out = tmp_path / "a" / "graphs"
        rc = main(["graph", "--data", str(data), "--embeddings", str(toy_embeddings_path),
                   "--out", str(out), "--embedding-dim", "8"])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"cluster id {bad_id!r}" in err and "Traceback" not in err
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == [
            Path("data.jsonl"), Path("vectors.txt")]

    def test_id_of_255_byte_file_name_accepted(self, tmp_path, toy_embeddings_path):
        data = tmp_path / "data.jsonl"
        cid = "\u00e9" * 125  # <id>.json is 255 bytes
        write_cluster_file(data, [{"id": cid, "documents": ["storm hits the coast."]}])
        out = tmp_path / "graphs"
        assert main(["graph", "--data", str(data), "--embeddings", str(toy_embeddings_path),
                     "--out", str(out), "--embedding-dim", "8"]) == 0
        assert (out / f"{cid}.json").exists() and (out / f"{cid}.dot").exists()

    def test_sentence_embeddings_set_ss_weights(self, tmp_path, toy_corpus_path,
                                                toy_embeddings_path):
        from dgsum.corpus import build_vocab, load_clusters
        from dgsum.training import prepare_bundle
        clusters = load_clusters(toy_corpus_path)
        sent_vecs = tmp_path / "sentences.txt"
        rng = np.random.default_rng(3)
        with sent_vecs.open("w") as fh:
            for c in clusters:
                for di, doc in enumerate(c.documents):
                    for si in range(len(doc.sentences)):
                        vec = " ".join(f"{x:.6f}" for x in rng.normal(size=8))
                        fh.write(f"{c.id}:{di}:{si} {vec}\n")
        flags = ["--data", str(toy_corpus_path), "--embeddings", str(toy_embeddings_path),
                 "--embedding-dim", "8", "--sentence-embeddings", str(sent_vecs)]
        out = tmp_path / "graphs"
        assert main(["graph", *flags, "--out", str(out)]) == 0
        cfg = resolve_config(None, {"embeddings": str(toy_embeddings_path),
                                    "embedding_dim": 8,
                                    "sentence_embeddings": str(sent_vecs)})
        resources = cfg.resources(build_vocab(clusters, min_freq=1))
        default = resolve_config(None, {"embeddings": str(toy_embeddings_path),
                                        "embedding_dim": 8}).resources(resources.vocab)
        for c in clusters:
            exported = json.loads((out / f"{c.id}.json").read_text())["edges"]["SS"]
            built = prepare_bundle(c, resources, cfg.model_config(), need_summary=False)
            assert exported == [[a, b, w] for a, b, w in built.src_graph.edges["SS"]]
            mean_of_words = prepare_bundle(c, default, cfg.model_config(),
                                           need_summary=False)
            assert exported != [[a, b, w] for a, b, w
                                in mean_of_words.src_graph.edges["SS"]]

    def test_sentence_embeddings_key_the_summary_graph(self, tmp_path):
        # summary sentence s is read under "<id>:summary:0:<s>"
        from dgsum.corpus import build_vocab, load_clusters
        from dgsum.training import prepare_bundle
        data = tmp_path / "data.jsonl"
        write_cluster_file(data, [{"id": "c1", "documents": ["storm hits coast. waves flood."],
                                   "summary": "storm hits. waves flood. town waits."}])
        cluster = load_clusters(data)[0]
        words = tmp_path / "vectors.txt"
        write_embedding_file(words, all_tokens(cluster))
        rng = np.random.default_rng(5)
        keys = ["c1:0:0", "c1:0:1"] + [f"c1:summary:0:{s}" for s in range(3)]
        vecs = {key: rng.normal(size=8) for key in keys}
        sent_vecs = tmp_path / "sentences.txt"
        sent_vecs.write_text("".join(f"{key} {' '.join(map(str, v))}\n"
                                     for key, v in vecs.items()))
        cfg = resolve_config(None, {"embeddings": str(words), "embedding_dim": 8,
                                    "sentence_embeddings": str(sent_vecs)})
        bundle = prepare_bundle(cluster, cfg.resources(build_vocab([cluster], min_freq=1)),
                                cfg.model_config(), need_summary=True)
        g = bundle.sum_graph
        assert len(g.edges["SS"]) == 3
        for a, b, w in g.edges["SS"]:
            u, v = (vecs[f"c1:summary:0:{g.nodes[i].sent}"] for i in (a, b))
            assert w == pytest.approx(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)),
                                      rel=0, abs=1e-12)

    def test_pos_field_sets_the_nouns(self, tmp_path):
        # "went" is a closed-class word to the heuristic; the tags make it a noun
        data = tmp_path / "data.jsonl"
        write_cluster_file(data, [{"id": "p", "documents": ["went went went."],
                                   "pos": [[["NOUN", "NOUN", "NOUN", "PUNCT"]]]}])
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("went 1.0 2.0\n. 0.5 -1.0\n")
        out = tmp_path / "graphs"
        rc = main(["graph", "--data", str(data), "--embeddings", str(vectors),
                   "--out", str(out), "--embedding-dim", "2"])
        assert rc == 0
        we = json.loads((out / "p.json").read_text())["edges"]["WE"]
        assert [(a, b) for a, b, _ in we] == [(2, 3), (2, 4), (3, 4)]  # the three "went" nodes

    @pytest.mark.parametrize("pos, message", [
        ([5], "list of lists of strings"),
        ([[5]], "list of lists of strings"),
        ([[[5, 6, 7, 8]]], "list of lists of strings"),
        ([[["NOUN", "NOUN"]]], "2 tags for 4 tokens"),
        ([[["NOUN"] * 4, ["NOUN"]]], "2 sentences, document has 1"),
        ({"0": []}, "must parallel 'documents'"),
    ])
    def test_malformed_pos_is_data_error(self, tmp_path, toy_embeddings_path, capsys,
                                         pos, message):
        data = tmp_path / "data.jsonl"
        write_cluster_file(data, [{"id": "ok", "documents": ["team wins the final."]},
                                  {"id": "a", "documents": ["storm hits coast."],
                                   "pos": pos}])
        out = tmp_path / "graphs"
        rc = main(["graph", "--data", str(data), "--embeddings", str(toy_embeddings_path),
                   "--out", str(out), "--embedding-dim", "8"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "data.jsonl:2: cluster 'a': " in err and message in err, err
        assert not out.exists()

    def test_python_m_dgsum_runs_the_cli(self, tmp_path, toy_corpus_path,
                                         toy_embeddings_path):
        out = tmp_path / "graphs"
        env = {**os.environ, "PYTHONPATH": str(Path(dgsum.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "dgsum", "graph", "--data", str(toy_corpus_path),
             "--embeddings", str(toy_embeddings_path), "--out", str(out),
             "--embedding-dim", "8"], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert len(list(out.glob("*.json"))) == 8

    def test_dot_parses_under_grammar(self, tmp_path, toy_corpus_path,
                                      toy_embeddings_path):
        import re
        out = tmp_path / "graphs"
        main(["graph", "--data", str(toy_corpus_path),
              "--embeddings", str(toy_embeddings_path), "--out", str(out),
              "--embedding-dim", "8"])
        node_stmt = re.compile(r'^[dsw]\d+ \[(\w+="[^"]*"\s*)+\];$')
        edge_stmt = re.compile(r'^[dsw]\d+ -- [dsw]\d+ \[(\w+="[^"]*"\s*)+\];$')
        for dot in out.glob("*.dot"):
            lines = dot.read_text().splitlines()
            assert re.fullmatch(r'graph "[^"]+" \{', lines[0])
            assert lines[-1] == "}"
            saw_edge = False
            for line in lines[1:-1]:
                stmt = line.strip()
                assert node_stmt.match(stmt) or edge_stmt.match(stmt), stmt
                saw_edge = saw_edge or " -- " in stmt
            assert saw_edge

    def test_files_equal_the_oracles(self, tmp_path):
        from dgsum.corpus import load_clusters
        from dgsum.embeddings import EmbeddingTable, MeanWordEmbedder
        from dgsum.hetgraph import build_hetero_graph
        quoted_id = 'a"b\\'  # a plain file name that DOT must escape
        records = generated_records(7, 3) + [{**generated_records(8, 1)[0], "id": quoted_id}]
        data, vectors, out = tmp_path / "data.jsonl", tmp_path / "vectors.txt", tmp_path / "g"
        write_cluster_file(data, records)
        clusters = load_clusters(data)
        write_embedding_file(vectors, set().union(*map(all_tokens, clusters)))
        assert main(["graph", "--data", str(data), "--embeddings", str(vectors),
                     "--out", str(out), "--embedding-dim", "8", "--we-threshold", "0"]) == 0
        table = EmbeddingTable.load(vectors, 8)
        cfg = GraphConfig(we_threshold=0.0)
        for cluster in clusters:
            g = build_hetero_graph(cluster, table, MeanWordEmbedder(table), cfg)
            files = out / f"{cluster.id}.json", out / f"{cluster.id}.dot"
            assert files[0].read_bytes() == to_json_oracle(g).encode()
            assert files[1].read_bytes() == to_dot_oracle(g, cluster.id).encode()
        assert (out / f"{quoted_id}.dot").read_text().startswith('graph "a\\"b\\\\" {\n')

    def test_non_finite_word_vector_is_skipped(self, tmp_path, caplog):
        # a nan vector would give NaN WE weights; the line is malformed instead
        data, vectors, out = tmp_path / "data.jsonl", tmp_path / "vectors.txt", tmp_path / "g"
        write_cluster_file(data, [{"id": "c1", "documents": ["storm hits coast. storm waves.",
                                                             "coast storm town."]}])
        vectors.write_text("storm nan 1.0\ncoast 1.0 0.5\ntown 0.5 1.0\n")
        with caplog.at_level("WARNING", logger="dgsum.embeddings"):
            assert main(["graph", "--data", str(data), "--embeddings", str(vectors),
                         "--out", str(out), "--embedding-dim", "2", "--we-threshold", "0"]) == 0
        assert "skipped 1 malformed lines" in caplog.text
        assert "NaN" not in (out / "c1.json").read_text()
        assert (out / "validation.txt").read_text() == ""

    def test_a_cluster_that_cannot_be_built_is_skipped_and_named(self, tmp_path, capsys,
                                                                 toy_embeddings_path):
        """As in ``summarize``: the other clusters' files and validation.txt
        are written, the bad one is named with its reason, and the exit is 2."""
        data = tmp_path / "data.jsonl"
        write_cluster_file(data, [
            {"id": "c1", "documents": ["storm hits coast."]},
            {"id": "c2", "documents": [" ".join(["storm"] * 19) + "."]},  # 20 tokens
            {"id": "c3", "documents": ["team wins the final."]}])
        out = tmp_path / "graphs"
        rc = main(["graph", "--data", str(data), "--embeddings", str(toy_embeddings_path),
                   "--out", str(out), "--embedding-dim", "8", "--max-input-len", "16"])
        assert rc == 2
        assert sorted(f.name for f in out.iterdir()) == [
            "c1.dot", "c1.json", "c3.dot", "c3.json", "validation.txt"]
        assert (out / "validation.txt").read_text() == ""
        err = capsys.readouterr().err
        assert "data error: cluster 'c2': no sentences within the length budget" in err, err
        assert "'c1'" not in err and "'c3'" not in err

    def test_json_counts_match_graph(self, tmp_path, toy_corpus_path,
                                     toy_embeddings_path):
        out = tmp_path / "graphs"
        main(["graph", "--data", str(toy_corpus_path),
              "--embeddings", str(toy_embeddings_path), "--out", str(out),
              "--embedding-dim", "8"])
        from dgsum.corpus import load_clusters
        from dgsum.embeddings import EmbeddingTable, MeanWordEmbedder
        from dgsum.hetgraph import GraphConfig, build_hetero_graph
        cluster = load_clusters(toy_corpus_path)[0]
        table = EmbeddingTable.load(toy_embeddings_path, 8)
        g = build_hetero_graph(cluster, table, MeanWordEmbedder(table), GraphConfig())
        dumped = json.loads((out / f"{cluster.id}.json").read_text())
        assert len(dumped["nodes"]) == g.n_nodes
        for etype, lst in g.edges.items():
            assert len(dumped["edges"][etype]) == len(lst)

    def test_out_of_memory_is_a_numeric_error(self, tmp_path, capsys, monkeypatch,
                                              toy_corpus_path, toy_embeddings_path):
        def exhausted(cfg):
            raise MemoryError("Unable to allocate 8.00 GiB for an array")

        monkeypatch.setattr(dgsum.cli, "cmd_graph", exhausted)
        rc = main(["graph", "--data", str(toy_corpus_path), "--embeddings",
                   str(toy_embeddings_path), "--out", str(tmp_path / "graphs"),
                   "--embedding-dim", "8"])
        err = capsys.readouterr().err
        assert rc == 3
        assert "numeric error: out of memory: Unable to allocate 8.00 GiB" in err
        assert "Traceback" not in err


def _npz_bytes():
    buf = io.BytesIO()
    np.savez(buf, __format_version__=np.asarray([1]), w=np.zeros(64))
    return buf.getvalue()


def _npy_bytes():
    buf = io.BytesIO()
    np.save(buf, np.zeros(3))
    return buf.getvalue()


NOT_UTF8 = "café storm".encode("latin-1")

# id: (command, what is hostile, its content: None for a directory, else
# bytes); "vocab.json" and "checkpoint.npz" are files of the --model directory
HOSTILE_FILES = {
    "data-directory": ("train", "--data", None),
    "data-latin-1": ("train", "--data", json.dumps(
        {"id": "a", "documents": ["café storm."]}, ensure_ascii=False).encode("latin-1")),
    "embeddings-directory": ("graph", "--embeddings", None),
    "embeddings-latin-1": ("graph", "--embeddings", NOT_UTF8 + b" 1 2 3 4 5 6 7 8\n"),
    "sentence-embeddings-directory": ("graph", "--sentence-embeddings", None),
    "sentence-embeddings-latin-1": ("graph", "--sentence-embeddings",
                                    NOT_UTF8 + b" 1 2 3 4 5 6 7 8\n"),
    "generated-latin-1": ("eval", "--generated", NOT_UTF8),
    "vocab-not-json": ("summarize", "vocab.json", b"not json"),
    "vocab-tokens-not-a-list": ("summarize", "vocab.json", b'{"tokens": 5}'),
    "vocab-a-list": ("summarize", "vocab.json", b'["a"]'),
    "vocab-repeated-token": ("summarize", "vocab.json", b'{"tokens": ["storm", "storm"]}'),
    "checkpoint-empty": ("summarize", "checkpoint.npz", b""),
    "checkpoint-junk": ("summarize", "checkpoint.npz", b"junk bytes \x00\x01\x02"),
    "checkpoint-truncated-zip": ("summarize", "checkpoint.npz", _npz_bytes()[:200]),
    "checkpoint-npy": ("summarize", "checkpoint.npz", _npy_bytes()),
}


class TestInputFiles:
    """A file that cannot be read is a data error (exit 2) that names it."""

    @pytest.mark.parametrize("command, target, content", list(HOSTILE_FILES.values()),
                             ids=list(HOSTILE_FILES))
    def test_hostile_file_is_named_data_error(self, tmp_path, capsys, toy_corpus_path,
                                              toy_embeddings_path, command, target,
                                              content):
        model = tmp_path / "model"
        model.mkdir()
        (model / "vocab.json").write_text('{"tokens": ["storm"]}', encoding="utf-8")
        bad = model / target if target.endswith((".json", ".npz")) else tmp_path / "bad"
        if content is None:
            bad.mkdir()
        else:
            bad.write_bytes(content)
        given = {"--data": toy_corpus_path, "--embeddings": toy_embeddings_path,
                 "--generated": toy_corpus_path, "--references": toy_corpus_path,
                 "--model": model, "--out": tmp_path / "out"}
        if target.startswith("--"):
            given[target] = bad
        wanted = {"train": ("--data", "--embeddings", "--out"),
                  "graph": ("--data", "--embeddings", "--sentence-embeddings", "--out"),
                  "eval": ("--generated", "--references"),
                  "summarize": ("--model", "--data", "--embeddings", "--out")}[command]
        argv = [command] + [a for flag in wanted if flag in given
                            for a in (flag, str(given[flag]))]
        assert main(argv + TOY_FLAGS) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err

    @pytest.mark.parametrize("command, kind", [
        ("train", "file"), ("graph", "file"), ("summarize", "directory"),
        ("eval", "directory"), ("ksweep", "directory")])
    def test_out_of_the_wrong_kind_is_config_error_before_data(self, tmp_path, capsys,
                                                              command, kind):
        out = tmp_path / "out"
        if kind == "file":
            out.write_text("keep", encoding="utf-8")
        else:
            out.mkdir()
        missing = str(tmp_path / "missing.jsonl")
        extra = {"summarize": ["--model", str(tmp_path / "model")],
                 "eval": ["--generated", missing, "--references", missing],
                 "ksweep": ["--k-values", "0.3,0.6"]}.get(command, [])
        rc = main([command, "--data", missing, "--embeddings", missing,
                   "--out", str(out), *extra])
        assert rc == 1
        assert str(out) in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [out]
        assert out.read_text() == "keep" if kind == "file" else not any(out.iterdir())

    @pytest.mark.parametrize("target, message", [
        ("vocab.json", "vocab repeats the token 'storm'"),
        ("checkpoint.npz", "not a checkpoint archive")])
    def test_bad_model_file_message_names_the_fault(self, tmp_path, capsys, trained_model,
                                                    toy_corpus_path, toy_embeddings_path,
                                                    target, message):
        bad = trained_model / target
        bad.write_bytes({"vocab.json": b'{"tokens": ["storm", "storm"]}',
                         "checkpoint.npz": b"junk bytes \x00\x01\x02"}[target])
        assert main(["summarize", "--model", str(trained_model), "--data",
                     str(toy_corpus_path), "--embeddings", str(toy_embeddings_path),
                     "--out", str(tmp_path / "hyp.jsonl")]) == 2
        err = capsys.readouterr().err
        assert f"{bad}" in err and message in err
        assert "pickle" not in err and "Traceback" not in err

    def test_version_1_checkpoint_is_refused(self, tmp_path, capsys, trained_model,
                                             toy_corpus_path, toy_embeddings_path):
        """A checkpoint of the per-head MGAT layout (version 1: mgat{l}.{ch}.h{m}.W
        [d_head, d_in] and .w [2*d_head], U [d_in, width]) is a data error."""
        ckpt = trained_model / "checkpoint.npz"
        old = {"__format_version__": np.asarray([1])}
        with np.load(ckpt) as new:
            for name in set(new.files) - {"__format_version__"}:
                prefix, _, kind = name.rpartition(".")
                if not name.startswith("mgat"):
                    old[name] = new[name]
                elif kind == "U":
                    old[name] = new[name].T
                elif kind == "a":
                    for m, (W, w) in enumerate(head_arrays(new[f"{prefix}.W"], new[name])):
                        old[f"{prefix}.h{m}.W"], old[f"{prefix}.h{m}.w"] = W, w
        assert "mgat0.WE.h0.W" in old and "mgat0.WE.W" not in old
        np.savez(ckpt, **old)
        out = tmp_path / "hyp.jsonl"
        assert main(["summarize", "--model", str(trained_model), "--data",
                     str(toy_corpus_path), "--embeddings", str(toy_embeddings_path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{ckpt}: unsupported checkpoint version 1" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("dtype", [np.complex128, np.bool_, np.int64, np.float32])
    def test_checkpoint_of_other_than_one_floating_dtype_is_refused(
            self, tmp_path, capsys, trained_model, toy_corpus_path, toy_embeddings_path, dtype):
        """``emb.tok`` rewritten as complex, bool, int64 or, beside float64
        arrays, float32: a data error naming the file and the parameter."""
        ckpt = trained_model / "checkpoint.npz"
        with np.load(ckpt) as saved:
            arrays = {name: saved[name] for name in saved.files}
        arrays["emb.tok"] = arrays["emb.tok"].astype(dtype)
        if dtype is np.complex128:
            arrays["emb.tok"] += 1j
        np.savez(ckpt, **arrays)
        out = tmp_path / "hyp.jsonl"
        assert main(["summarize", "--model", str(trained_model), "--data",
                     str(toy_corpus_path), "--embeddings", str(toy_embeddings_path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{ckpt}: parameter" in err and "'emb.tok'" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "graph"])
    def test_non_empty_out_is_refused(self, tmp_path, capsys, toy_corpus_path,
                                      toy_embeddings_path, command):
        out = tmp_path / "out"
        out.mkdir()
        (out / "checkpoint.npz").write_text("keep", encoding="utf-8")
        missing = str(tmp_path / "missing.jsonl")
        assert main([command, "--data", missing, "--embeddings", missing,
                     "--out", str(out)]) == 1  # refused before the data is read
        err = capsys.readouterr().err
        assert str(out) in err and "not empty" in err
        argv = [command, "--data", str(toy_corpus_path), "--embeddings",
                str(toy_embeddings_path), "--out", str(out), *TOY_FLAGS]
        assert main(argv) == 1
        assert str(out) in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["checkpoint.npz"]
        assert (out / "checkpoint.npz").read_text() == "keep"

    def test_config_of_a_model_cannot_retrain_over_it(self, tmp_path, capsys,
                                                      toy_corpus_path, toy_embeddings_path):
        model = tmp_path / "model"
        assert main(["train", "--data", str(toy_corpus_path), "--embeddings",
                     str(toy_embeddings_path), "--out", str(model), *TOY_FLAGS]) == 0
        before = {p.name: p.read_bytes() for p in model.iterdir()}
        # the echoed config names the model's own directory as its out
        assert main(["train", "--config", str(model / "config.json")]) == 1
        assert str(model) in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in model.iterdir()} == before

    def test_empty_out_directory_is_accepted(self, tmp_path, toy_corpus_path,
                                             toy_embeddings_path):
        out = tmp_path / "out"
        out.mkdir()
        assert main(["train", "--data", str(toy_corpus_path), "--embeddings",
                     str(toy_embeddings_path), "--out", str(out), *TOY_FLAGS]) == 0
        assert (out / "checkpoint.npz").exists()

    def test_write_error_is_reported_without_traceback(self, tmp_path, capsys):
        refs = tmp_path / "ref.jsonl"
        write_cluster_file(refs, [{"id": "a", "summary": "storm floods the town."}])
        (tmp_path / "taken").write_text("", encoding="utf-8")
        out = tmp_path / "taken" / "report.json"  # its parent is a file
        assert main(["eval", "--generated", str(refs), "--references", str(refs),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "taken" in err and "Traceback" not in err
