"""End to end at toy scale: train on a few clusters until the model can
reproduce their summaries, then generate with beam search and score with
ROUGE. Takes around half a minute on a laptop CPU.

Run:  python3 demos/05_train_and_summarize.py
"""

from dgsum.compressor import CompressorConfig
from dgsum.corpus import Document, DocumentCluster, build_vocab, tokenize
from dgsum.embeddings import EmbeddingTable
from dgsum.mgat import MgatConfig
from dgsum.rouge import corpus_rouge
from dgsum.text_model import TextModelConfig
from dgsum.training import (ModelConfig, Resources, TrainConfig, fit,
                            prepare_bundle, summarize_bundle)

raw = [
    (["storm hits the coast hard. waves flood low town streets.",
      "rescue teams arrive fast. people move to high ground."],
     "storm floods town and rescue begins."),
    (["markets fall on bad news. traders sell shares fast.",
      "banks warn of more risk. investors wait for calm."],
     "markets fall as traders sell."),
    (["team wins the final game. fans cheer in the streets.",
      "coach praises young players. the club plans a parade."],
     "team wins and fans cheer."),
    (["rain soaks the dry fields. farmers welcome the water.",
      "crops may recover soon. prices fall at the market."],
     "rain helps farmers and crops."),
]
clusters = [
    DocumentCluster(id=f"c{i}",
                    documents=[Document(sentences=tokenize(t)) for t in docs],
                    summary=tokenize(summary))
    for i, (docs, summary) in enumerate(raw)
]

vocab = build_vocab(clusters, min_freq=1)
tokens = {t for c in clusters for d in c.documents for s in d.sentences
          for t in s.tokens}
tokens |= {t for c in clusters for s in c.summary for t in s.tokens}
table = EmbeddingTable.random(tokens, dimension=8, seed=1)
resources = Resources.default(vocab, table)

model_cfg = ModelConfig(
    text=TextModelConfig(d_model=32, n_layers_enc=1, n_layers_dec=1, n_heads=2,
                         ffn_dim=48, attention_window=8, max_in_len=128,
                         max_out_len=12),
    mgat=MgatConfig(n_layers=1, n_heads=1, d_in=32, d_head=8),
    comp=CompressorConfig(k=0.6),
)
params = model_cfg.build_params(len(vocab), seed=7)
print(f"vocab {len(vocab)} tokens, {params.total_count()} parameters")

bundles = [prepare_bundle(c, resources, model_cfg) for c in clusters]
train_cfg = TrainConfig(beta=0.5, label_smoothing=0.0, lr=3e-3, epochs=120,
                        seed=7, eval_every=10 ** 9, patience=10 ** 9)
result = fit(bundles, bundles, params, model_cfg, train_cfg, resources)

steps = [r for r in result.log if r["kind"] == "step"]
print(f"trained {len(steps)} steps; "
      f"final losses ce={steps[-1]['l_ce']:.4f} gs={steps[-1]['l_gs']:.4f}")

print("\ngenerated vs reference (beam width 5):")
for bundle in bundles:
    hyp = summarize_bundle(bundle, result.params, model_cfg, vocab, beam_width=5)
    ref = [t for s in bundle.reference for t in s][:model_cfg.text.max_out_len - 1]
    rl = corpus_rouge({"c": " ".join(hyp)}, {"c": " ".join(ref)})["rl"]  # as dgsum eval
    mark = "=" if hyp == ref else "~"
    print(f"  [{mark}] R-L {rl:.2f} | {' '.join(hyp)}")
