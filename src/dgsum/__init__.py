"""Heterogeneous document-graph summarization at desk scale.

Pipeline: tokenize clusters -> build a typed word/sentence/document graph
with six weighted edge types -> encode text with windowed attention ->
encode the graph with multi-channel graph attention -> compress via
differentiable top-k sentence pooling -> decode with beam search. Training
combines teacher-forced cross-entropy with a graph-similarity objective.
"""

from . import (cli, compressor, corpus, embeddings, hetgraph, mgat, numeric,
               rouge, text_model, training)
from .corpus import DocumentCluster, Document, Sentence, Vocab, build_vocab, tokenize
from .embeddings import EmbeddingTable, MeanWordEmbedder, PrecomputedEmbedder
from .hetgraph import GraphConfig, HeteroGraph, build_hetero_graph, validate_graph
from .numeric import Adam, ParamStore, Tensor, grad_check
from .training import (LossBreakdown, ModelConfig, Resources, TrainConfig, fit,
                       prepare_bundle, summarize_bundle, train_step)

__version__ = "0.1.0"

__all__ = [
    "cli", "compressor", "corpus", "embeddings", "hetgraph", "mgat", "numeric",
    "rouge", "text_model", "training",
    "DocumentCluster", "Document", "Sentence", "Vocab", "build_vocab", "tokenize",
    "EmbeddingTable", "MeanWordEmbedder", "PrecomputedEmbedder",
    "GraphConfig", "HeteroGraph", "build_hetero_graph", "validate_graph",
    "Adam", "ParamStore", "Tensor", "grad_check",
    "LossBreakdown", "ModelConfig", "Resources", "TrainConfig", "fit",
    "prepare_bundle", "summarize_bundle", "train_step",
    "__version__",
]
