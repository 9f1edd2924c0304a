"""Context-aware model selection with a recurrent network (Section III-A).

The paper suggests "deep reinforcement learning or LSTM-based classification
networks" to use conversational context when selecting the domain model.  The
:class:`ContextualSelectionPolicy` keeps a sliding window of recent messages,
encodes each as bag-of-words features, runs a GRU over the window and
classifies the current domain from the final hidden state.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Sequence

import numpy as np

from repro.nn import (
    Adam,
    RecurrentClassifier,
    Tensor,
    cross_entropy_from_parts,
    cross_entropy_parts,
)
from repro.selection.features import MessageFeaturizer
from repro.selection.policy import SelectionPolicy
from repro.utils.rng import SeedLike, new_rng


class ContextualDomainSelector:
    """GRU classifier over a window of recent message features."""

    def __init__(
        self,
        featurizer: MessageFeaturizer,
        domain_names: Sequence[str],
        context_window: int = 4,
        hidden_dim: int = 32,
        seed: SeedLike = None,
    ) -> None:
        if context_window <= 0:
            raise ValueError(f"context_window must be positive, got {context_window}")
        self.featurizer = featurizer
        self.domain_names = list(domain_names)
        self.context_window = context_window
        self.model = RecurrentClassifier(featurizer.dim, hidden_dim, len(self.domain_names), seed=seed)

    def fit(
        self,
        conversations: Sequence[Sequence[str]],
        domain_labels: Sequence[Sequence[str]],
        epochs: int = 10,
        learning_rate: float = 5e-3,
        batch_size: int = 32,
        seed: SeedLike = None,
    ) -> list[float]:
        """Train on conversations labelled with the true domain of every turn."""
        if len(conversations) != len(domain_labels):
            raise ValueError("conversations and domain_labels must have the same length")
        windows: list[np.ndarray] = []
        labels: list[int] = []
        for texts, domains in zip(conversations, domain_labels):
            if len(texts) != len(domains):
                raise ValueError("each conversation needs one label per turn")
            context = self.featurizer.context_features(list(texts), self.context_window)
            for turn, domain in enumerate(domains):
                windows.append(context[turn])
                labels.append(self.domain_names.index(domain))
        if not windows:
            raise ValueError("no training turns provided")
        features = np.stack(windows)
        targets = np.asarray(labels, dtype=np.int64)
        rng = new_rng(seed)
        optimizer = Adam(self.model.parameters(), learning_rate)
        losses: list[float] = []
        # Graph-captured GRU training step.  The recurrent unroll is exactly
        # the workload where trace-and-replay pays off most: eager rebuilds
        # hundreds of small tape nodes per step, the replay runs a flat
        # kernel program.
        step = self._build_train_step()
        for _ in range(epochs):
            order = rng.permutation(len(targets))
            epoch_losses = []
            for start in range(0, len(targets), batch_size):
                batch_index = order[start : start + batch_size]
                optimizer.zero_grad()
                batch_features = np.ascontiguousarray(features[batch_index])
                rows, safe_targets, weights = cross_entropy_parts(targets[batch_index])
                loss, _ = step(
                    features=batch_features, rows=rows, targets=safe_targets, weights=weights
                )
                optimizer.clip_gradients(5.0)
                optimizer.step()
                epoch_losses.append(loss.item())
            losses.append(float(np.mean(epoch_losses)))
        return losses

    def _build_train_step(self):
        """Compiled classification train step (eager when capture is off)."""
        from repro.nn.graph import CompiledTrainStep

        model = self.model

        def fn(features, rows, targets, weights):
            logits = model(Tensor(features))
            loss = cross_entropy_from_parts(logits, rows, targets, weights)
            return loss, logits

        return CompiledTrainStep(fn, model.parameters())

    def predict_from_window(self, window_features: np.ndarray) -> str:
        """Domain prediction from a ``(window, dim)`` feature array."""
        logits = self.model(Tensor(window_features[None, ...]))
        return self.domain_names[int(np.argmax(logits.data[0]))]


class ClassifierProbabilityFeaturizer(MessageFeaturizer):
    """Featurizer whose per-message representation is a classifier's domain posterior.

    Feeding the per-message domain probabilities (instead of raw bag-of-words)
    into the recurrent selector gives it a compact, highly informative input:
    the GRU only has to learn how to smooth noisy per-message evidence over
    the conversation, which is exactly the contextual effect Section III-A is
    after.
    """

    def __init__(self, classifier) -> None:
        self.classifier = classifier
        self.vocabulary = classifier.featurizer.vocabulary

    @property
    def dim(self) -> int:
        """Feature dimensionality (= number of candidate domains)."""
        return len(self.classifier.domain_names)

    def features(self, text: str) -> np.ndarray:
        """Domain-probability vector of one message."""
        return self.classifier.predict_probabilities(text)


class ContextualSelectionPolicy(SelectionPolicy):
    """Stateful policy wrapping a trained :class:`ContextualDomainSelector`."""

    name = "contextual"

    def __init__(self, selector: ContextualDomainSelector) -> None:
        super().__init__(selector.domain_names)
        self.selector = selector
        self._history: Deque[np.ndarray] = deque(maxlen=selector.context_window)

    def select(self, message: str) -> str:
        features = self.selector.featurizer.features(message)
        self._history.append(features)
        window = np.zeros((self.selector.context_window, self.selector.featurizer.dim))
        stacked = np.stack(list(self._history))
        window[-len(self._history) :] = stacked
        return self.selector.predict_from_window(window)

    def reset(self) -> None:
        self._history.clear()
