"""Semantic (KB-) encoders: token ids → compact per-token semantic features.

These are the ``e_i^m`` models of Section II-A: one encoder per domain ``m``
cached at the sender edge server ``i``.  The encoder body can be a
transformer, a GRU, or a per-token MLP (Section III-B of the paper discusses
exploring different model families); all variants end with a linear
projection down to ``feature_dim`` — the narrow representation that is
quantized and sent over the physical channel.
"""

from __future__ import annotations


import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn import (
    GRU,
    Embedding,
    Linear,
    Module,
    PositionalEncoding,
    Tensor,
    TransformerEncoder,
    no_grad,
    note_data_dependent,
    padding_mask,
)
from repro.semantic.config import CodecConfig
from repro.utils.rng import new_rng, spawn_rng


class SemanticEncoder(Module):
    """Maps ``(batch, length)`` token ids to ``(batch, length, feature_dim)`` features."""

    def __init__(self, vocab_size: int, config: CodecConfig, pad_id: int = 0) -> None:
        super().__init__()
        if vocab_size <= 0:
            raise ConfigurationError(f"vocab_size must be positive, got {vocab_size}")
        self.config = config
        self.vocab_size = vocab_size
        self.pad_id = pad_id
        seeds = spawn_rng(new_rng(config.seed), 4)

        self.embedding = Embedding(vocab_size, config.embedding_dim, seed=seeds[0])
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

        self.feature_projection = Linear(body_output_dim, config.feature_dim, seed=seeds[2])

    def forward(self, token_ids: np.ndarray) -> Tensor:
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim == 1:
            token_ids = token_ids[None, :]
        embedded = self.embedding(token_ids)
        if self.config.architecture == "transformer":
            embedded = self.positional(embedded)
            mask = padding_mask(token_ids, self.pad_id)
            body_output = self.body(embedded, mask=mask)
        elif self.config.architecture == "gru":
            body_output, _ = self.body(embedded)
        else:
            body_output = self.body(embedded).relu()
        return self.feature_projection(body_output).tanh()

    def encode(self, token_ids: np.ndarray) -> np.ndarray:
        """Inference helper: return features as a plain numpy array.

        Runs under :class:`~repro.nn.tensor.no_grad` in evaluation mode, so no
        autograd tape is built — this is the per-request hot path an edge
        server pays after a cache hit.  The forward pass replays a captured
        flat program (bit-identical, falling back to eager for architectures
        it cannot trace or when the graph runtime is disabled); the ids are
        canonicalised first so the capture recognises them as the per-call
        input.
        """
        was_training = self.training
        self.eval()
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim == 1:
            token_ids = token_ids[None, :]
        # Replayed programs run the bare gather kernel, skipping the host-side
        # range validation Embedding.forward performs during the trace — so an
        # invalid id must fail as loudly here as it would eagerly.
        if token_ids.size and (token_ids.min() < 0 or token_ids.max() >= self.vocab_size):
            raise ShapeError(
                f"token ids must be in [0, {self.vocab_size}), got range "
                f"[{token_ids.min()}, {token_ids.max()}]"
            )
        with no_grad():
            features = self.compile()(token_ids).data.copy()
        if was_training:
            self.train()
        return features

    @property
    def feature_dim(self) -> int:
        """Width of the semantic feature vectors this encoder produces."""
        return self.config.feature_dim


class SemanticPoolingEncoder(Module):
    """Sentence-level encoder producing one pooled feature vector per message.

    Used by the model-selection experiments as a message representation and
    available as an extreme-compression codec variant (a single vector per
    message regardless of length).
    """

    def __init__(self, vocab_size: int, config: CodecConfig, pad_id: int = 0) -> None:
        super().__init__()
        self.token_encoder = SemanticEncoder(vocab_size, config, pad_id=pad_id)
        self.pad_id = pad_id
        self.config = config

    def forward(self, token_ids: np.ndarray) -> Tensor:
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.ndim == 1:
            token_ids = token_ids[None, :]
        features = self.token_encoder(token_ids)
        mask = (token_ids != self.pad_id).astype(features.data.dtype)
        denominators = np.maximum(mask.sum(axis=1, keepdims=True), 1.0)
        # Pooling weights depend on which positions are padding — per-call
        # content, so graph capture falls back to eager for this module.
        weights = Tensor(note_data_dependent(mask[..., None] / denominators[..., None]))
        return (features * weights).sum(axis=1)

    def encode(self, token_ids: np.ndarray) -> np.ndarray:
        """Inference helper returning pooled features as numpy (no autograd tape)."""
        was_training = self.training
        self.eval()
        with no_grad():
            pooled = self.forward(token_ids).data.copy()
        if was_training:
            self.train()
        return pooled
