"""Semantic (KB-) decoders: received semantic features → token logits.

These are the ``d_j^m`` models of Section II-A cached at the receiver edge
server ``j`` (and, per Section II-C, also copied to the sender edge server so
mismatch can be computed locally).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn import GRU, Linear, Module, PositionalEncoding, Tensor, TransformerEncoder, no_grad
from repro.semantic.config import CodecConfig
from repro.utils.rng import new_rng, spawn_rng


class SemanticDecoder(Module):
    """Maps ``(batch, length, feature_dim)`` features to ``(batch, length, vocab)`` logits."""

    def __init__(self, vocab_size: int, config: CodecConfig) -> None:
        super().__init__()
        if vocab_size <= 0:
            raise ConfigurationError(f"vocab_size must be positive, got {vocab_size}")
        self.config = config
        self.vocab_size = vocab_size
        seeds = spawn_rng(new_rng(None if config.seed is None else config.seed + 1), 4)

        self.input_projection = Linear(config.feature_dim, config.embedding_dim, seed=seeds[0])
        self.positional = PositionalEncoding(config.embedding_dim, max_length=config.max_length)

        if config.architecture == "transformer":
            self.body: Module = TransformerEncoder(
                config.embedding_dim,
                config.num_heads,
                config.num_layers,
                hidden_dim=config.hidden_dim,
                dropout=config.dropout,
                seed=seeds[1],
            )
            body_output_dim = config.embedding_dim
        elif config.architecture == "gru":
            self.body = GRU(config.embedding_dim, config.hidden_dim, seed=seeds[1])
            body_output_dim = config.hidden_dim
        else:  # mlp
            self.body = Linear(config.embedding_dim, config.hidden_dim, seed=seeds[1])
            body_output_dim = config.hidden_dim

        self.output_projection = Linear(body_output_dim, vocab_size, seed=seeds[2])

    def forward(self, features: Tensor | np.ndarray) -> Tensor:
        if not isinstance(features, Tensor):
            # Tensor() preserves float32/float64 inputs, so a float32 decoder
            # keeps its reduced-precision path end to end.
            features = Tensor(np.asarray(features))
        if features.ndim == 2:
            features = features.reshape(1, *features.shape)
        projected = self.input_projection(features)
        if self.config.architecture == "transformer":
            projected = self.positional(projected)
            body_output = self.body(projected)
        elif self.config.architecture == "gru":
            body_output, _ = self.body(projected)
        else:
            body_output = self.body(projected).relu()
        return self.output_projection(body_output)

    def decode_greedy(self, features: np.ndarray) -> np.ndarray:
        """Argmax token ids for received ``features`` (inference mode, no tape).

        Runs through the graph runtime: one captured program per feature
        shape, replayed with preallocated buffers (bit-identical to eager,
        transparent fallback otherwise, and when the runtime is disabled).
        """
        was_training = self.training
        self.eval()
        with no_grad():
            logits = self.compile()(features)
        if was_training:
            self.train()
        return np.argmax(logits.data, axis=-1)
