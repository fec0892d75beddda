"""Build the typed document graph for a small cluster and look inside it.

Run:  python3 demos/01_build_and_inspect_graph.py
"""

from dgsum.corpus import Document, DocumentCluster, tokenize
from dgsum.embeddings import EmbeddingTable, MeanWordEmbedder
from dgsum.hetgraph import GraphConfig, build_hetero_graph, validate_graph

# A cluster is a handful of related documents. The tokenizer splits
# sentences on terminal punctuation and detaches edge punctuation.
texts = [
    "A storm hit the coast overnight. Waves flooded the town square.",
    "The storm neared the coast by evening. Rescue teams arrived fast.",
]
cluster = DocumentCluster(
    id="demo",
    documents=[Document(sentences=tokenize(t)) for t in texts],
)
for d, doc in enumerate(cluster.documents):
    for s, sent in enumerate(doc.sentences):
        print(f"doc {d} sent {s}: {sent.lower}")

# Static word vectors drive the WE and SS edge weights. Real runs load a
# GloVe-format text file; here random-but-deterministic vectors suffice.
tokens = {t for doc in cluster.documents for s in doc.sentences for t in s.lower}
table = EmbeddingTable.random(tokens, dimension=16, seed=0)

graph = build_hetero_graph(cluster, table, MeanWordEmbedder(table),
                           GraphConfig(we_threshold=0.5))

print("\nnodes:", graph.n_nodes)
for kind in ("document", "sentence", "word"):
    print(f"  {kind:9s} x {len(graph.kind_indices(kind))}")

print("\nedges by type (undirected, weighted):")
for etype, edges in graph.edges.items():
    sample = ", ".join(f"({a},{b},{w:.2f})" for a, b, w in list(edges)[:3])
    print(f"  {etype}: {len(edges):3d}   e.g. {sample}")

# Every sentence hangs off exactly one document (DS), every word off exactly
# one sentence (SW); documents are pairwise connected by mean-ROUGE weights.
sent0 = int(graph.kind_indices("sentence")[0])
print("\nneighbors of the first sentence node:")
for etype in ("DS", "SW", "SS"):
    neigh = [(graph.nodes[j], w) for j, w in graph.adjacency(etype, sent0)]
    print(f"  {etype}: {[(nd.kind, nd.index, round(w, 2)) for nd, w in neigh][:4]}")

report = validate_graph(graph)
print("\nvalidation:", "clean" if report.ok else report.violations)

# DOT export for visual inspection with graphviz
print("\nDOT preview:")
print("\n".join(graph.to_dot("demo").splitlines()[:6]), "\n...")
