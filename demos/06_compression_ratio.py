"""What the graph compressor keeps as the ratio k varies.

Run:  python3 demos/06_compression_ratio.py
"""

import numpy as np

from dgsum.compressor import (CompressorConfig, compress, extend_selection,
                              node_scores, select_topk_sentences)
from dgsum.corpus import Document, DocumentCluster, tokenize
from dgsum.embeddings import EmbeddingTable, MeanWordEmbedder
from dgsum.hetgraph import GraphConfig, build_hetero_graph
from dgsum.numeric import Tensor

texts = [
    "storm hits the coast. waves flood the town. rescue begins at dawn.",
    "people leave early. roads stay closed. the mayor speaks tonight.",
]
cluster = DocumentCluster(
    id="k-demo", documents=[Document(sentences=tokenize(t)) for t in texts])
tokens = {t for d in cluster.documents for s in d.sentences for t in s.tokens}
table = EmbeddingTable.random(tokens, dimension=8, seed=3)
graph = build_hetero_graph(cluster, table, MeanWordEmbedder(table), GraphConfig())

# Scores come from a learned projection; random weights work for the demo.
rng = np.random.default_rng(0)
q_prime = Tensor(rng.normal(size=(graph.n_nodes, 16)))
r = Tensor(rng.normal(size=16))
t = node_scores(q_prime, r)
print(f"{graph.n_nodes} nodes, scores sum to {t.data.sum():.6f}")

n_sent = len(graph.kind_indices("sentence"))
print(f"{n_sent} sentence nodes\n")
print(f"{'k':>5} {'sentences':>10} {'total kept':>11} {'kept fraction':>14}")
previous = set()
for k in (0.2, 0.4, 0.6, 0.8, 1.0):
    chosen = select_topk_sentences(t, k, graph)
    selection = extend_selection(chosen, graph)
    q_p, positions = compress(q_prime, t, selection, graph, CompressorConfig(k=k))
    assert set(chosen.tolist()) >= previous  # selections nest as k grows
    previous = set(chosen.tolist())
    print(f"{k:>5.1f} {len(chosen):>10} {len(selection):>11} "
          f"{len(selection) / graph.n_nodes:>14.2f}")

print("\nretained rows are scaled by their scores (soft masking), so the")
print("selection stays differentiable end to end; positions ride along for")
print("the decoder's positional embeddings:", positions[:8], "...")
