"""Paired semantic encoder/decoder with training and message-level helpers.

A :class:`SemanticCodec` is one knowledge base in the sense of the paper: a
domain-specialized encoder/decoder pair, its vocabulary, and the training
machinery that builds it from a domain corpus.  The codec exposes the two
operations the communication pipeline needs — ``encode_message`` (semantic
feature extraction) and ``decode_features`` (semantic feature restoration) —
plus joint training on (possibly channel-impaired) reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.exceptions import KnowledgeBaseError
from repro.nn import (
    Adam,
    Tensor,
    cross_entropy_from_parts,
    cross_entropy_parts,
    nll_accuracy,
)
from repro.semantic.config import CodecConfig, TrainingReport
from repro.semantic.decoder import SemanticDecoder
from repro.semantic.encoder import SemanticEncoder
from repro.text import Tokenizer, Vocabulary, bleu_score, token_accuracy
from repro.utils.rng import SeedLike, new_rng


def build_codec_train_step(encoder, decoder):
    """A graph-captured joint reconstruction training step.

    The returned :class:`~repro.nn.graph.CompiledTrainStep` computes
    ``cross_entropy(decoder(encoder(ids) [+ noise]), targets)`` and its
    backward pass as a replayed flat program — bit-identical to the eager
    loop (verified bitwise at capture), with transparent eager fallback for
    architectures the tracer cannot capture (e.g. the transformer's
    input-dependent attention mask) and when the graph runtime is disabled
    (``REPRO_GRAPH=0`` / :func:`repro.nn.graph.configure`).

    Shared by :meth:`SemanticCodec.train` and
    :meth:`repro.semantic.individual.IndividualModel.fine_tune` — the two
    loops that dominate e1/e2/e3/e6 wall-clock.
    """
    from repro.nn.graph import CompiledTrainStep

    def fn(ids, rows, targets, weights, noise=None):
        features = encoder(ids)
        if noise is not None:
            features = features + Tensor(noise)
        logits = decoder(features)
        loss = cross_entropy_from_parts(logits, rows, targets, weights)
        return loss, logits

    return CompiledTrainStep(fn, encoder.parameters() + decoder.parameters())


@dataclass
class EncodedMessage:
    """Semantic features of one message, ready for quantization/transmission."""

    features: np.ndarray
    num_tokens: int
    domain: Optional[str] = None

    @property
    def feature_count(self) -> int:
        """Total number of scalar feature values."""
        return int(np.prod(self.features.shape))


class SemanticCodec:
    """A domain knowledge base: tokenizer, vocabulary, encoder and decoder.

    Parameters
    ----------
    vocabulary:
        Shared vocabulary for the encoder input and decoder output.
    config:
        Model hyper-parameters.
    domain:
        Optional domain label (``"it"``, ``"medical"``, ...) for bookkeeping.
    """

    def __init__(
        self,
        vocabulary: Vocabulary,
        config: Optional[CodecConfig] = None,
        domain: Optional[str] = None,
    ) -> None:
        self.config = config or CodecConfig()
        self.vocabulary = vocabulary
        self.domain = domain
        self.tokenizer = Tokenizer(max_length=self.config.max_length - 2)
        self.encoder = SemanticEncoder(len(vocabulary), self.config, pad_id=vocabulary.pad_id)
        self.decoder = SemanticDecoder(len(vocabulary), self.config)
        self.training_report = TrainingReport()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_corpus(
        cls,
        sentences: Sequence[str],
        config: Optional[CodecConfig] = None,
        domain: Optional[str] = None,
        train_epochs: int = 0,
        seed: SeedLike = None,
        extra_tokens: Sequence[str] = (),
    ) -> "SemanticCodec":
        """Build (and optionally train) a codec whose vocabulary covers ``sentences``.

        ``extra_tokens`` adds words to the vocabulary that the training corpus
        does not contain (e.g. user-specific synonyms) so that later
        fine-tuning on user data can learn them without rebuilding the model.
        """
        config = config or CodecConfig()
        tokenizer = Tokenizer(max_length=config.max_length - 2)
        tokenized = tokenizer.tokenize_batch(sentences)
        vocabulary = Vocabulary.from_corpus(tokenized)
        for token in extra_tokens:
            vocabulary.add(token)
        codec = cls(vocabulary, config=config, domain=domain)
        if train_epochs > 0:
            codec.train(sentences, epochs=train_epochs, seed=seed)
        return codec

    # ------------------------------------------------------------------ #
    # Message-level API
    # ------------------------------------------------------------------ #
    def tokens_to_ids(self, sentences: Sequence[str]) -> np.ndarray:
        """Tokenize and encode raw sentences to a padded id batch."""
        tokenized = self.tokenizer.tokenize_batch(sentences)
        return self.vocabulary.encode_batch(tokenized, max_length=self.config.max_length)

    def encode_message(self, text: str, domain: Optional[str] = None) -> EncodedMessage:
        """Semantic feature extraction for a single message."""
        ids = self.tokens_to_ids([text])
        num_tokens = int(np.count_nonzero(ids[0] != self.vocabulary.pad_id))
        features = self.encoder.encode(ids)[0]
        # Padding positions carry no information; only real-token features are
        # transmitted, so payload size tracks message length.
        features = features[:num_tokens]
        return EncodedMessage(features=features, num_tokens=num_tokens, domain=domain or self.domain)

    def decode_features(self, features: np.ndarray) -> str:
        """Semantic feature restoration back to text."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 2:
            features = features[None, ...]
        ids = self.decoder.decode_greedy(features)[0]
        tokens = self.vocabulary.decode(ids)
        return self.tokenizer.detokenize(tokens)

    def reconstruct(self, text: str) -> str:
        """Round-trip a message through the codec without a channel."""
        return self.decode_features(self.encode_message(text).features)

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def _batches(self, ids: np.ndarray, batch_size: int, order: np.ndarray) -> Iterator[np.ndarray]:
        """Yield mini-batches following ``order`` lazily, one at a time.

        The caller owns (and reshuffles) the index buffer across epochs, so an
        epoch allocates only the batch being trained on instead of every
        slice up front.
        """
        for start in range(0, len(ids), batch_size):
            yield ids[order[start : start + batch_size]]

    def train(
        self,
        sentences: Sequence[str],
        epochs: int = 10,
        noise_std: float = 0.0,
        seed: SeedLike = None,
        learning_rate: Optional[float] = None,
    ) -> TrainingReport:
        """Jointly train encoder and decoder to reconstruct ``sentences``.

        ``noise_std`` adds Gaussian noise to the features during training,
        which approximates channel impairments and makes the codec robust to
        the quantization/noise it will see at inference time.
        """
        if not sentences:
            raise KnowledgeBaseError("cannot train a codec on an empty corpus")
        if epochs <= 0:
            raise KnowledgeBaseError(f"epochs must be positive, got {epochs}")
        rng = new_rng(seed)
        ids = self.tokens_to_ids(list(sentences))
        parameters = self.encoder.parameters() + self.decoder.parameters()
        optimizer = Adam(parameters, learning_rate or self.config.learning_rate)
        self.encoder.train()
        self.decoder.train()
        # One index buffer reused across epochs.  It must be reset to identity
        # before each in-place shuffle: Generator.shuffle of the identity
        # consumes the same stream and yields the same order as the historical
        # per-epoch ``rng.permutation(len(ids))``, keeping training bit-stable
        # (shuffling the previous epoch's order would not).
        identity = np.arange(len(ids))
        order = identity.copy()
        # Graph-captured step: traced on the first batch of each shape,
        # replayed for the rest of training.  The rng is consumed in exactly
        # the eager order (shuffle, then one noise draw per batch), so
        # trajectories stay bit-identical.
        step = build_codec_train_step(self.encoder, self.decoder)
        pad_id = self.vocabulary.pad_id
        feature_dim = self.config.feature_dim
        for _ in range(epochs):
            epoch_losses: List[float] = []
            epoch_accuracies: List[float] = []
            order[:] = identity
            rng.shuffle(order)
            for batch in self._batches(ids, self.config.batch_size, order):
                optimizer.zero_grad()
                noise = (
                    rng.normal(0.0, noise_std, size=batch.shape + (feature_dim,))
                    if noise_std > 0.0
                    else None
                )
                rows, safe_targets, weights = cross_entropy_parts(batch, pad_id)
                loss, logits = step(
                    ids=batch, rows=rows, targets=safe_targets, weights=weights, noise=noise
                )
                optimizer.clip_gradients(5.0)
                optimizer.step()
                epoch_losses.append(loss.item())
                epoch_accuracies.append(nll_accuracy(logits, batch, ignore_index=pad_id))
            self.training_report.record(float(np.mean(epoch_losses)), float(np.mean(epoch_accuracies)))
        self.encoder.eval()
        self.decoder.eval()
        return self.training_report

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, sentences: Sequence[str]) -> Dict[str, float]:
        """Reconstruction quality of the codec on ``sentences`` (no channel).

        The whole batch runs through *one* encoder forward (inference mode, no
        autograd tape); decoding is batched per sentence length, so every
        sentence sees exactly the features and greedy decode it would see
        alone — per-sentence BLEU/token-accuracy is identical to a
        one-at-a-time loop, just without N round trips through the models.
        """
        if not sentences:
            raise KnowledgeBaseError("cannot evaluate on an empty corpus")
        sentences = list(sentences)
        ids = self.tokens_to_ids(sentences)
        lengths = np.count_nonzero(ids != self.vocabulary.pad_id, axis=1)
        features = self.encoder.encode(ids)
        # Group equal-length sentences: a group batch carries no padding, so
        # even architectures whose decoder mixes positions (transformer
        # attention) produce the same tokens as single-sentence decoding.
        hypotheses: List[List[str]] = [[] for _ in sentences]
        for length in np.unique(lengths):
            group = np.nonzero(lengths == length)[0]
            group_features = np.asarray(features[group, : int(length), :], dtype=np.float64)
            decoded = self.decoder.decode_greedy(group_features)
            for row, sentence_index in enumerate(group):
                tokens = self.vocabulary.decode(decoded[row])
                hypotheses[sentence_index] = self.tokenizer.tokenize(self.tokenizer.detokenize(tokens))
        accuracies: List[float] = []
        bleus: List[float] = []
        for sentence, hypothesis in zip(sentences, hypotheses):
            reference = self.tokenizer.tokenize(sentence)
            accuracies.append(token_accuracy(reference, hypothesis))
            bleus.append(bleu_score(reference, hypothesis))
        return {
            "token_accuracy": float(np.mean(accuracies)),
            "bleu": float(np.mean(bleus)),
            "num_sentences": float(len(sentences)),
        }

    # ------------------------------------------------------------------ #
    # Bookkeeping
    # ------------------------------------------------------------------ #
    def num_parameters(self) -> int:
        """Total trainable parameters across encoder and decoder."""
        return self.encoder.num_parameters() + self.decoder.num_parameters()

    def model_bytes(self, bytes_per_value: int = 4) -> int:
        """Approximate serialized size of the codec (for cache sizing)."""
        return self.num_parameters() * bytes_per_value

    def state_dict(self) -> Dict[str, Dict[str, np.ndarray]]:
        """Serializable parameter snapshot of both halves."""
        return {"encoder": self.encoder.state_dict(), "decoder": self.decoder.state_dict()}

    def load_state_dict(self, state: Dict[str, Dict[str, np.ndarray]]) -> None:
        """Restore a snapshot created by :meth:`state_dict`."""
        self.encoder.load_state_dict(state["encoder"])
        self.decoder.load_state_dict(state["decoder"])

    def clone(self) -> "SemanticCodec":
        """Deep copy sharing no parameters (used to derive individual models)."""
        copy = SemanticCodec(self.vocabulary, config=self.config, domain=self.domain)
        copy.load_state_dict(self.state_dict())
        return copy
