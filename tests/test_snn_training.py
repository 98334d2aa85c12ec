"""Tests of unsupervised training, label assignment and evaluation."""

import numpy as np
import pytest

from repro.snn.network import DiehlCookNetwork, NetworkParameters
from repro.snn.training import (
    TrainedModel,
    assign_labels,
    evaluate_accuracy,
    predict,
    run_spike_counts,
    train_network,
    train_unsupervised,
)
from repro.engine import BatchedEvaluator
from repro.rng import skip_uniform_draws


class TestAssignLabels:
    def test_assigns_strongest_class(self):
        counts = np.array([[10, 0], [9, 1], [0, 10], [1, 8]])
        labels = np.array([0, 0, 1, 1])
        assignments = assign_labels(counts, labels, n_classes=2)
        assert assignments.tolist() == [0, 1]

    def test_silent_neurons_get_minus_one(self):
        counts = np.zeros((4, 3), dtype=int)
        counts[:, 0] = 1
        assignments = assign_labels(counts, np.array([0, 1, 0, 1]), n_classes=2)
        assert assignments[1] == -1
        assert assignments[2] == -1

    def test_label_alignment_enforced(self):
        with pytest.raises(ValueError):
            assign_labels(np.zeros((3, 2)), np.zeros(4), n_classes=2)


class TestPredict:
    def test_majority_vote(self):
        counts = np.array([[5, 0, 1], [0, 6, 0]])
        assignments = np.array([0, 1, 1])
        preds = predict(counts, assignments, n_classes=2)
        assert preds.tolist() == [0, 1]

    def test_votes_normalised_by_class_size(self):
        # Two neurons assigned to class 0, one to class 1; raw sums would
        # favour class 0, per-neuron averages must not.
        counts = np.array([[2, 2, 5]])
        assignments = np.array([0, 0, 1])
        preds = predict(counts, assignments, n_classes=2)
        assert preds[0] == 1

    def test_unassigned_neurons_never_vote(self):
        counts = np.array([[100, 1]])
        assignments = np.array([-1, 1])
        preds = predict(counts, assignments, n_classes=2)
        assert preds[0] == 1


class TestTrainedModel:
    def test_copy_is_deep(self):
        model = TrainedModel(
            weights=np.ones((4, 2)),
            theta=np.zeros(2),
            assignments=np.zeros(2, dtype=np.int64),
            n_input=4,
            n_neurons=2,
        )
        clone = model.copy()
        clone.weights[0, 0] = 9.0
        clone.metadata["x"] = 1
        assert model.weights[0, 0] == 1.0
        assert "x" not in model.metadata

    def test_install_into_network(self, rng):
        params = NetworkParameters(n_input=4, n_neurons=2)
        net = DiehlCookNetwork(params, rng=rng)
        model = TrainedModel(
            weights=np.full((4, 2), 0.25),
            theta=np.array([1.0, 2.0]),
            assignments=np.zeros(2, dtype=np.int64),
            n_input=4,
            n_neurons=2,
        )
        model.install_into(net)
        assert np.array_equal(net.weights, model.weights)
        assert np.array_equal(net.neurons.theta, model.theta)


class TestTrainingLoop:
    def test_training_beats_chance_on_mini_dataset(self, mini_mnist, rng):
        params = NetworkParameters(n_neurons=40)
        net = DiehlCookNetwork(params, rng=rng)
        model = train_unsupervised(
            net,
            mini_mnist.train_images,
            mini_mnist.train_labels,
            n_steps=60,
            epochs=1,
            rng=rng,
        )
        accuracy = evaluate_accuracy(
            net,
            mini_mnist.test_images,
            mini_mnist.test_labels,
            model.assignments,
            n_steps=60,
            rng=rng,
        )
        assert accuracy > 0.3  # 10 classes -> chance is 0.1

    def test_trained_model_fields(self, mini_mnist, rng):
        params = NetworkParameters(n_neurons=20)
        net = DiehlCookNetwork(params, rng=rng)
        model = train_unsupervised(
            net,
            mini_mnist.train_images[:30],
            mini_mnist.train_labels[:30],
            n_steps=40,
            rng=rng,
        )
        assert model.weights.shape == (784, 20)
        assert model.theta.shape == (20,)
        assert model.assignments.shape == (20,)
        assert 0.0 <= model.accuracy <= 1.0
        assert model.metadata["epochs"] == 1

    def test_mismatched_labels_rejected(self, mini_mnist, rng):
        net = DiehlCookNetwork(NetworkParameters(n_neurons=10), rng=rng)
        with pytest.raises(ValueError):
            train_unsupervised(
                net, mini_mnist.train_images[:10], mini_mnist.train_labels[:5], rng=rng
            )

    def test_corrupt_weights_hook_runs_and_keeps_weights_finite(
        self, mini_mnist, rng
    ):
        net = DiehlCookNetwork(NetworkParameters(n_neurons=10), rng=rng)
        calls = []

        def corrupt(weights):
            calls.append(1)
            noisy = weights + rng.normal(0, 0.01, weights.shape)
            return np.clip(noisy, 0.0, 1.0)

        train_unsupervised(
            net,
            mini_mnist.train_images[:10],
            mini_mnist.train_labels[:10],
            n_steps=30,
            rng=rng,
            corrupt_weights=corrupt,
        )
        assert len(calls) == 10
        assert np.all(np.isfinite(net.weights))
        assert net.weights.min() >= 0.0

    def test_run_spike_counts_shape(self, mini_mnist, rng):
        net = DiehlCookNetwork(NetworkParameters(n_neurons=10), rng=rng)
        counts = run_spike_counts(net, mini_mnist.test_images[:5], 30, rng)
        assert counts.shape == (5, 10)


class TestTrainNetwork:
    def test_train_unsupervised_is_training_plus_two_train_passes(self, mini_mnist):
        images = mini_mnist.train_images[:12]
        full_rng = np.random.default_rng(3)
        full = train_unsupervised(
            DiehlCookNetwork(NetworkParameters(n_neurons=8), rng=full_rng),
            images, mini_mnist.train_labels[:12], n_steps=20, rng=full_rng,
        )
        rng = np.random.default_rng(3)
        trained = train_network(
            DiehlCookNetwork(NetworkParameters(n_neurons=8), rng=rng),
            images, n_steps=20, rng=rng,
        )
        skip_uniform_draws(rng, 2 * images.size * 20)
        assert np.array_equal(trained.weights, full.weights)
        assert np.array_equal(trained.theta, full.theta)
        assert trained.metadata == full.metadata
        assert rng.bit_generator.state == full_rng.bit_generator.state

    def test_model_is_unlabelled(self, mini_mnist, rng):
        model = train_network(
            DiehlCookNetwork(NetworkParameters(n_neurons=6), rng=rng),
            mini_mnist.train_images[:4], n_steps=10, rng=rng,
        )
        assert model.assignments.tolist() == [-1] * 6
        assert model.accuracy == 0.0


class TestLabelCount:
    """One label per image, or a one-line ValueError before any draw."""

    @pytest.fixture
    def five(self, mini_mnist):
        net = DiehlCookNetwork(
            NetworkParameters(n_neurons=6), rng=np.random.default_rng(1)
        )
        return net, mini_mnist.test_images[:5], np.arange(6) % 10

    @pytest.mark.parametrize("n_labels", [1, 4, 6])
    def test_evaluate_accuracy_rejects_wrong_count(self, five, n_labels):
        net, images, assignments = five
        rng = np.random.default_rng(2)
        before = rng.bit_generator.state
        with pytest.raises(
            ValueError,
            match=f"one label per image: got {n_labels} labels for 5 images",
        ):
            evaluate_accuracy(
                net, images, np.full(n_labels, 3), assignments, 10, rng
            )
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("n_labels", [1, 4, 6])
    def test_evaluator_accuracies_rejects_wrong_count(self, five, n_labels):
        net, images, assignments = five
        evaluator = BatchedEvaluator.for_network(net)
        with pytest.raises(
            ValueError,
            match=f"one label per image: got {n_labels} labels for 5 images",
        ):
            evaluator.accuracies(
                images, np.full(n_labels, 3), assignments, 10,
                np.random.default_rng(2), weights=net.weights,
            )

    def test_column_of_labels_rejected(self, five):
        net, images, assignments = five
        with pytest.raises(ValueError, match=r"labels of shape \(5, 1\)"):
            evaluate_accuracy(
                net, images, np.zeros((5, 1), dtype=int), assignments, 10,
                np.random.default_rng(2),
            )

    def test_assign_labels_rejects_wrong_count(self):
        with pytest.raises(ValueError, match="got 2 labels for 3 images"):
            assign_labels(np.zeros((3, 4)), np.array([0, 1]))
