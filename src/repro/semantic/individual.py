"""User-specific individual models (Section II-B/D of the paper).

An individual model starts as a copy of a domain-specialized general codec
(``e_u^m, d_u^m`` evolved from ``e_i^m, d_i^m``) and is fine-tuned on the
transactions collected in that user's domain buffer.  Only the *decoder*
gradient has to reach the receiver edge to keep its copy in sync
(Section II-D); the federated package handles that transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import KnowledgeBaseError
from repro.nn import Adam, cross_entropy_parts
from repro.semantic.codec import SemanticCodec, build_codec_train_step
from repro.semantic.mismatch import DomainBuffer
from repro.utils.rng import SeedLike, new_rng


@dataclass
class FineTuneResult:
    """Outcome of one individual-model fine-tuning round."""

    losses: List[float] = field(default_factory=list)
    decoder_gradients: Dict[str, np.ndarray] = field(default_factory=dict)
    num_sentences: int = 0

    @property
    def final_loss(self) -> float:
        """Loss after the last step (``nan`` if no steps ran)."""
        return self.losses[-1] if self.losses else float("nan")


class IndividualModel:
    """A user's personal codec for one domain, derived from the general codec.

    Parameters
    ----------
    user_id:
        Owner of the model.
    domain:
        Domain of the general codec this model specializes.
    general_codec:
        The domain-specialized general codec to copy; it is never modified
        ("the general models remain the same during all time", Section II-D).
    """

    def __init__(self, user_id: str, domain: str, general_codec: SemanticCodec) -> None:
        self.user_id = user_id
        self.domain = domain
        self.codec = general_codec.clone()
        self._general_reference = general_codec
        self.updates_applied = 0

    # ------------------------------------------------------------------ #
    # Fine-tuning from buffered transactions
    # ------------------------------------------------------------------ #
    def fine_tune(
        self,
        sentences: Sequence[str],
        epochs: int = 3,
        learning_rate: float = 2e-3,
        seed: SeedLike = None,
        collect_decoder_gradient: bool = True,
    ) -> FineTuneResult:
        """Fine-tune the individual codec on the user's own ``sentences``.

        Returns the training losses and (optionally) the accumulated decoder
        gradient of the final step, which is what gets shipped to the receiver
        edge server to synchronize the decoder copy.
        """
        if not sentences:
            raise KnowledgeBaseError("cannot fine-tune on an empty transaction set")
        if epochs <= 0:
            raise KnowledgeBaseError(f"epochs must be positive, got {epochs}")
        rng = new_rng(seed)
        ids = self.codec.tokens_to_ids(list(sentences))
        encoder = self.codec.encoder
        decoder = self.codec.decoder
        parameters = encoder.parameters() + decoder.parameters()
        optimizer = Adam(parameters, learning_rate)
        encoder.train()
        decoder.train()
        result = FineTuneResult(num_sentences=len(sentences))
        batch_size = self.codec.config.batch_size
        pad_id = self.codec.vocabulary.pad_id
        # Graph-captured step shared with SemanticCodec.train: traced per
        # batch shape, replayed afterwards.
        step = build_codec_train_step(encoder, decoder)
        for _ in range(epochs):
            order = rng.permutation(len(ids))
            for start in range(0, len(ids), batch_size):
                batch = ids[order[start : start + batch_size]]
                optimizer.zero_grad()
                rows, safe_targets, weights = cross_entropy_parts(batch, pad_id)
                loss, _ = step(ids=batch, rows=rows, targets=safe_targets, weights=weights)
                optimizer.clip_gradients(5.0)
                if collect_decoder_gradient:
                    result.decoder_gradients = {
                        name: parameter.grad.copy()
                        for name, parameter in decoder.named_parameters()
                        if parameter.grad is not None
                    }
                optimizer.step()
                result.losses.append(loss.item())
        encoder.eval()
        decoder.eval()
        self.updates_applied += 1
        return result

    def fine_tune_from_buffer(
        self,
        buffer: DomainBuffer,
        minimum_transactions: int = 8,
        epochs: int = 3,
        learning_rate: float = 2e-3,
        seed: SeedLike = None,
    ) -> Optional[FineTuneResult]:
        """Fine-tune from a :class:`DomainBuffer` once it holds enough data.

        Returns ``None`` when the buffer is not yet ready, mirroring the
        paper's "after enough collected data at ``b_m``" condition.
        """
        if not buffer.is_ready(minimum_transactions):
            return None
        sentences = [transaction.original_text for transaction in buffer.for_user(self.user_id)]
        if len(sentences) < minimum_transactions:
            return None
        return self.fine_tune(sentences, epochs=epochs, learning_rate=learning_rate, seed=seed)

    # ------------------------------------------------------------------ #
    # Comparison with the general model
    # ------------------------------------------------------------------ #
    def improvement_over_general(self, sentences: Sequence[str]) -> Dict[str, float]:
        """Evaluate both codecs on ``sentences`` and report the accuracy gain."""
        individual_metrics = self.codec.evaluate(sentences)
        general_metrics = self._general_reference.evaluate(sentences)
        return {
            "individual_token_accuracy": individual_metrics["token_accuracy"],
            "general_token_accuracy": general_metrics["token_accuracy"],
            "token_accuracy_gain": individual_metrics["token_accuracy"] - general_metrics["token_accuracy"],
            "individual_bleu": individual_metrics["bleu"],
            "general_bleu": general_metrics["bleu"],
            "bleu_gain": individual_metrics["bleu"] - general_metrics["bleu"],
        }

    def decoder_state(self) -> Dict[str, np.ndarray]:
        """Snapshot of the individual decoder parameters (for synchronization)."""
        return self.codec.decoder.state_dict()

    def model_bytes(self, bytes_per_value: int = 4) -> int:
        """Cache footprint of the individual model."""
        return self.codec.model_bytes(bytes_per_value)
