"""Graph-runtime integration at the semantic layer: same numbers, less work.

``SemanticCodec.train``, ``IndividualModel.fine_tune``, batched evaluation and
the contextual selector all route through the compiled runtime (which runs
its step eagerly when disabled); these tests pin that every observable number
(losses, gradients shipped to the receiver edge, evaluation metrics, selector
accuracy) is bit-identical with the runtime on and off.  The three training
loops are also pinned against a plain eager reference kept below: the tape
forward, ``cross_entropy_loss`` and ``backward()``, with the training noise
added to the features at the call site.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Adam, Tensor, cross_entropy_loss, nll_accuracy
from repro.nn.graph import configure, is_enabled
from repro.selection.contextual import ContextualDomainSelector
from repro.selection.features import MessageFeaturizer
from repro.semantic import CodecConfig, IndividualModel, SemanticCodec
from repro.text import Vocabulary
from repro.utils.rng import new_rng

SENTENCES = [
    "the avatar enters the virtual room",
    "haptic feedback renders the touch",
    "the codec compresses the scene",
    "a model is fetched from the cache",
    "the channel drops a few symbols",
    "the decoder repairs the message",
    "edge servers cooperate on misses",
    "the user roams to the next cell",
    "domain knowledge sharpens meaning",
    "gradients travel to the receiver",
]

USER_SENTENCES = [
    "my avatar waves to a friend",
    "my headset renders the plaza",
    "my favorite room loads quickly",
    "my messages arrive uncorrupted",
    "my model adapts to my slang",
    "my edge server knows my domain",
    "my gradients stay quite small",
    "my decoder copies synchronize",
]


@pytest.fixture(autouse=True)
def _graph_enabled():
    previous = is_enabled()
    configure(enabled=True)
    yield
    configure(enabled=previous)


def _reference_codec_train(codec, sentences, epochs, noise_std, seed, learning_rate):
    """``SemanticCodec.train`` as a plain eager loop: same shuffle and noise draws."""
    rng = new_rng(seed)
    ids = codec.tokens_to_ids(list(sentences))
    optimizer = Adam(codec.encoder.parameters() + codec.decoder.parameters(), learning_rate)
    codec.encoder.train()
    codec.decoder.train()
    pad_id = codec.vocabulary.pad_id
    batch_size = codec.config.batch_size
    losses, accuracies = [], []
    for _ in range(epochs):
        epoch_losses, epoch_accuracies = [], []
        order = np.arange(len(ids))
        rng.shuffle(order)
        for start in range(0, len(ids), batch_size):
            batch = ids[order[start : start + batch_size]]
            optimizer.zero_grad()
            features = codec.encoder(batch)
            if noise_std > 0.0:
                features = features + Tensor(rng.normal(0.0, noise_std, size=features.shape))
            logits = codec.decoder(features)
            loss = cross_entropy_loss(logits, batch, ignore_index=pad_id)
            loss.backward()
            optimizer.clip_gradients(5.0)
            optimizer.step()
            epoch_losses.append(loss.item())
            epoch_accuracies.append(nll_accuracy(logits, batch, ignore_index=pad_id))
        losses.append(float(np.mean(epoch_losses)))
        accuracies.append(float(np.mean(epoch_accuracies)))
    codec.encoder.eval()
    codec.decoder.eval()
    return losses, accuracies


def _reference_fine_tune(individual, sentences, epochs, seed, learning_rate=2e-3):
    """``IndividualModel.fine_tune`` as a plain eager loop."""
    rng = new_rng(seed)
    codec = individual.codec
    ids = codec.tokens_to_ids(list(sentences))
    encoder, decoder = codec.encoder, codec.decoder
    optimizer = Adam(encoder.parameters() + decoder.parameters(), learning_rate)
    encoder.train()
    decoder.train()
    pad_id = codec.vocabulary.pad_id
    losses, gradients = [], {}
    for _ in range(epochs):
        order = rng.permutation(len(ids))
        for start in range(0, len(ids), codec.config.batch_size):
            batch = ids[order[start : start + codec.config.batch_size]]
            optimizer.zero_grad()
            logits = decoder(encoder(batch))
            loss = cross_entropy_loss(logits, batch, ignore_index=pad_id)
            loss.backward()
            optimizer.clip_gradients(5.0)
            gradients = {
                name: parameter.grad.copy()
                for name, parameter in decoder.named_parameters()
                if parameter.grad is not None
            }
            optimizer.step()
            losses.append(loss.item())
    encoder.eval()
    decoder.eval()
    return losses, gradients


def _assert_same_codec_state(left, right):
    left_state, right_state = left.state_dict(), right.state_dict()
    for half in ("encoder", "decoder"):
        assert set(left_state[half]) == set(right_state[half])
        for key in left_state[half]:
            assert np.array_equal(left_state[half][key], right_state[half][key]), (half, key)


def _fine_tune(mode: str):
    configure(enabled=mode == "compiled")
    general = SemanticCodec.from_corpus(
        SENTENCES + USER_SENTENCES,
        config=CodecConfig(architecture="mlp", seed=0),
        train_epochs=2,
        seed=0,
        domain="metaverse",
    )
    individual = IndividualModel("user-1", "metaverse", general)
    if mode == "reference":
        return individual, _reference_fine_tune(individual, USER_SENTENCES, epochs=2, seed=1)
    result = individual.fine_tune(USER_SENTENCES, epochs=2, seed=1)
    return individual, (result.losses, result.decoder_gradients)


def test_fine_tune_identical_with_runtime_on_and_off():
    compiled_model, (compiled_losses, compiled_gradients) = _fine_tune("compiled")
    for mode in ("eager", "reference"):
        model, (losses, gradients) = _fine_tune(mode)
        assert losses == compiled_losses, mode
        assert set(gradients) == set(compiled_gradients), mode
        for name, gradient in gradients.items():
            assert np.array_equal(gradient, compiled_gradients[name]), (mode, name)
        _assert_same_codec_state(model.codec, compiled_model.codec)


@pytest.mark.parametrize("architecture", ["mlp", "gru"])
def test_noisy_codec_training_matches_the_eager_reference(architecture):
    """``SemanticCodec.train`` with channel noise, runtime on and off, equals
    the reference loop that adds the noise at the call site."""

    def codec():
        return SemanticCodec.from_corpus(
            SENTENCES, config=CodecConfig(architecture=architecture, seed=0)
        )

    arguments = dict(epochs=2, noise_std=0.1, seed=3, learning_rate=4e-3)
    reference = codec()
    losses, accuracies = _reference_codec_train(reference, SENTENCES, **arguments)
    for enabled in (True, False):
        configure(enabled=enabled)
        trained = codec()
        report = trained.train(SENTENCES, **arguments)
        assert report.losses == losses, enabled
        assert report.token_accuracies == accuracies, enabled
        _assert_same_codec_state(trained, reference)


def test_evaluate_batches_through_compiled_forward():
    codec = SemanticCodec.from_corpus(
        SENTENCES, config=CodecConfig(architecture="mlp", seed=0), train_epochs=2, seed=0
    )
    compiled_metrics = codec.evaluate(SENTENCES)
    configure(enabled=False)
    eager_metrics = codec.evaluate(SENTENCES)
    assert compiled_metrics == eager_metrics
    configure(enabled=True)
    # The eval path actually captured programs (one per decode group shape).
    assert codec.encoder.compile().program_count >= 1
    assert codec.decoder.compile().program_count >= 1


def test_reconstruct_identical_with_runtime_on_and_off():
    codec = SemanticCodec.from_corpus(
        SENTENCES, config=CodecConfig(architecture="gru", seed=0), train_epochs=2, seed=0
    )
    compiled_roundtrips = [codec.reconstruct(s) for s in SENTENCES[:4]]
    configure(enabled=False)
    eager_roundtrips = [codec.reconstruct(s) for s in SENTENCES[:4]]
    assert compiled_roundtrips == eager_roundtrips


def _reference_fit(selector, conversations, labels, epochs, seed, learning_rate=5e-3):
    """``ContextualDomainSelector.fit`` as a plain eager loop (batch size 32)."""
    windows, targets = [], []
    for texts, domains in zip(conversations, labels):
        context = selector.featurizer.context_features(list(texts), selector.context_window)
        windows.extend(context[turn] for turn in range(len(texts)))
        targets.extend(selector.domain_names.index(domain) for domain in domains)
    features = np.stack(windows)
    targets = np.asarray(targets, dtype=np.int64)
    rng = new_rng(seed)
    optimizer = Adam(selector.model.parameters(), learning_rate)
    losses = []
    for _ in range(epochs):
        order = rng.permutation(len(targets))
        epoch_losses = []
        for start in range(0, len(targets), 32):
            batch_index = order[start : start + 32]
            optimizer.zero_grad()
            logits = selector.model(Tensor(features[batch_index]))
            loss = cross_entropy_loss(logits, targets[batch_index])
            loss.backward()
            optimizer.clip_gradients(5.0)
            optimizer.step()
            epoch_losses.append(loss.item())
        losses.append(float(np.mean(epoch_losses)))
    return losses


def _fit_selector(mode: str):
    configure(enabled=mode == "compiled")
    vocabulary = Vocabulary.from_corpus([s.split() for s in SENTENCES + USER_SENTENCES])
    featurizer = MessageFeaturizer(vocabulary)
    selector = ContextualDomainSelector(featurizer, ["a", "b"], context_window=3, seed=0)
    conversations = [SENTENCES[:5], SENTENCES[5:], USER_SENTENCES[:4], USER_SENTENCES[4:]]
    labels = [["a"] * 5, ["b"] * 5, ["a"] * 4, ["b"] * 4]
    if mode == "reference":
        losses = _reference_fit(selector, conversations, labels, epochs=3, seed=2)
    else:
        losses = selector.fit(conversations, labels, epochs=3, seed=2)
    predictions = [selector.predict_from_window(featurizer.context_features(SENTENCES[:3], 3)[2])]
    return losses, predictions, selector.model.state_dict()


def test_contextual_selector_fit_identical_with_runtime_on_and_off():
    compiled_losses, compiled_predictions, compiled_state = _fit_selector("compiled")
    for mode in ("eager", "reference"):
        losses, predictions, state = _fit_selector(mode)
        assert losses == compiled_losses, mode
        assert predictions == compiled_predictions, mode
        assert set(state) == set(compiled_state), mode
        for key in state:
            assert np.array_equal(state[key], compiled_state[key]), (mode, key)
