"""CLI wiring: config layering, commands, artifacts, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from dgsum.cli import main, resolve_config
from dgsum.errors import ConfigError
from dgsum.rouge import corpus_rouge
from conftest import write_cluster_file
from oracles import rouge_l_summary_oracle, rouge_n_oracle, summarize_greedy

TOY_FLAGS = ["--d-model", "16", "--n-heads", "2", "--ffn-dim", "24",
             "--n-layers-enc", "1", "--n-layers-dec", "1",
             "--attention-window", "4", "--max-out-len", "12",
             "--mgat-layers", "1", "--mgat-heads", "1", "--mgat-head-dim", "4",
             "--embedding-dim", "8", "--min-freq", "1", "--epochs", "1",
             "--patience", "999", "--seed", "7"]


def read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


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

    @pytest.mark.parametrize("bad_id", ["../escaped", "sub/x", "", ".", ".."])
    def test_path_like_ids_rejected(self, tmp_path, toy_embeddings_path, bad_id):
        data = tmp_path / "data.jsonl"
        write_cluster_file(data, [{"id": "ok", "documents": ["storm hits the coast."]},
                                  {"id": bad_id, "documents": ["team wins the final."]}])
        out = tmp_path / "a" / "graphs"
        rc = main(["graph", "--data", str(data), "--embeddings", str(toy_embeddings_path),
                   "--out", str(out), "--embedding-dim", "8"])
        assert rc == 2
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == [
            Path("data.jsonl"), Path("vectors.txt")]

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
