"""Hybrid model composition, training loop, k-fold CV and grid search."""
import numpy as np
import pytest

from hyquc import hybrid, nn, qgrad, qsim, serialize
from hyquc.errors import DivergenceError, ShapeError
from hyquc.hybrid import HyperGrid, HybridModel, TrainConfig
from hyquc.nn import DenseLayer, MLPHead
from hyquc.qsim import CircuitSpec


def toy_blobs(rng, n_per_class=40, centers=((0.8, 0.8), (2.3, 2.3)), sigma=0.25):
    """Two well-separated 2-feature Gaussian blobs, clipped to [0, pi]."""
    X, y = [], []
    for c, center in enumerate(centers):
        X.append(rng.normal(center, sigma, size=(n_per_class, 2)))
        y.append(np.full(n_per_class, c))
    X = np.clip(np.vstack(X), 0.0, np.pi)
    y = np.concatenate(y)
    order = rng.permutation(len(y))
    return X[order], y[order]


def flatten_params(model):
    parts = [model.qweights.ravel()]
    for layer in model.head.layers:
        parts.append(layer.weights.ravel())
        parts.append(layer.bias.ravel())
    return np.concatenate(parts)


def model_with_params(model, flat):
    """Rebuild the model from a flat parameter vector (FD oracle plumbing)."""
    pos = model.qweights.size
    qweights = flat[:pos].reshape(model.qweights.shape)
    layers = []
    for layer in model.head.layers:
        w = flat[pos:pos + layer.weights.size].reshape(layer.weights.shape)
        pos += layer.weights.size
        b = flat[pos:pos + layer.bias.size]
        pos += layer.bias.size
        layers.append(DenseLayer(w, b, layer.activation))
    return HybridModel(model.spec, qweights, MLPHead(layers), model.n_classes,
                       model.row_type)


def flatten_grads(grads):
    parts = [grads.qweights.ravel()]
    for gw, gb in grads.head:
        parts.append(gw.ravel())
        parts.append(gb.ravel())
    return np.concatenate(parts)


class TestHybridForward:
    def test_output_contract(self):
        model = hybrid.init_model(CircuitSpec(3, 1), 4, np.random.default_rng(0))
        probs = hybrid.hybrid_forward(model, [0.3, 1.0, 2.0])
        assert probs.shape == (4,)
        assert abs(probs.sum() - 1.0) < 1e-12
        assert np.all(probs > 0)

    def test_symmetric_logits_uniform(self):
        spec = CircuitSpec(2, 1)
        head = MLPHead([DenseLayer(np.zeros((3, 2)), np.zeros(3), "softmax")])
        model = HybridModel(spec, np.zeros((1, 2, 3)), head, 3)
        np.testing.assert_allclose(hybrid.hybrid_forward(model, [0.0, 0.0]),
                                   [1 / 3] * 3, atol=1e-15)

    def test_deterministic(self):
        model = hybrid.init_model(CircuitSpec(2, 2), 3, np.random.default_rng(1))
        a = hybrid.hybrid_forward(model, [0.5, 1.5])
        b = hybrid.hybrid_forward(model, [0.5, 1.5])
        np.testing.assert_array_equal(a, b)

    def test_shape_mismatch(self):
        model = hybrid.init_model(CircuitSpec(2, 1), 3, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            hybrid.hybrid_forward(model, [0.1, 0.2, 0.3])

    def test_model_consistency_checks(self):
        spec = CircuitSpec(2, 1)
        head = MLPHead([DenseLayer(np.zeros((3, 4)), np.zeros(3), "softmax")])
        with pytest.raises(ShapeError):
            HybridModel(spec, np.zeros((1, 2, 3)), head, 3)


class TestLossAndGrads:
    def test_one_hot_correct_zero_loss_zero_grads(self):
        spec = CircuitSpec(2, 1)
        # huge output bias on class 0 makes every prediction one-hot correct
        head = MLPHead([DenseLayer(np.zeros((3, 2)), [1000.0, 0.0, 0.0],
                                   "softmax")])
        model = HybridModel(spec, np.zeros((1, 2, 3)), head, 3)
        X = np.array([[0.2, 0.4], [1.0, 2.0]])
        loss, grads = hybrid.loss_and_grads(model, (X, np.zeros(2, dtype=int)))
        assert loss == 0.0
        assert np.max(np.abs(flatten_grads(grads))) < 1e-9

    def test_worked_two_point_binary_toy(self):
        # 1-qubit model whose head reproduces the sigmoid/BCE desk example:
        # softmax([0, 0.5 q + 0.1])[1] = sigmoid(0.5 q + 0.1)
        spec = CircuitSpec(1, 1)
        head = MLPHead([DenseLayer([[0.0], [0.5]], [0.0, 0.1], "softmax")])
        model = HybridModel(spec, np.zeros((1, 1, 3)), head, 2)
        X = np.array([[np.arccos(0.8845)], [np.arccos(0.4417)]])
        y = np.array([1, 0])
        p1 = hybrid.hybrid_forward(model, X[0])
        p2 = hybrid.hybrid_forward(model, X[1])
        assert abs(nn.cross_entropy_loss(1, p1) - 0.4587) < 2e-3
        assert abs(nn.cross_entropy_loss(0, p2) - 0.8665) < 2e-3
        loss, _ = hybrid.loss_and_grads(model, (X, y))
        assert abs(loss - 0.6626) < 2e-3

    def test_gradients_match_end_to_end_finite_differences(self):
        rng = np.random.default_rng(14)
        spec = CircuitSpec(3, 2)
        model = hybrid.init_model(spec, 3, rng, hidden=(4,))
        X = rng.uniform(0, np.pi, size=(4, 3))
        y = rng.integers(0, 3, size=4)
        loss, grads = hybrid.loss_and_grads(model, (X, y))
        flat = flatten_params(model)
        g = flatten_grads(grads)
        h = 1e-5
        for i in range(len(flat)):
            fp, fm = flat.copy(), flat.copy()
            fp[i] += h
            fm[i] -= h
            lp, _ = hybrid.loss_and_grads(model_with_params(model, fp), (X, y))
            lm, _ = hybrid.loss_and_grads(model_with_params(model, fm), (X, y))
            assert abs(g[i] - (lp - lm) / (2 * h)) < 1e-5

    def test_empty_batch(self):
        model = hybrid.init_model(CircuitSpec(2, 1), 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            hybrid.loss_and_grads(model, (np.empty((0, 2)), np.empty(0, dtype=int)))


class TestTrainingStep:
    """One step builds the circuit once and reuses the head's activations."""

    def test_one_circuit_build_per_step(self, monkeypatch):
        calls = {"_rot_mats": 0, "_layer_blocks": 0}
        for name in calls:
            def counted(arg, _name=name, _real=getattr(qsim, name)):
                calls[_name] += 1
                return _real(arg)
            monkeypatch.setattr(qsim, name, counted)
        rng = np.random.default_rng(12)
        model = hybrid.init_model(CircuitSpec(3, 2), 3, rng)
        X, y = rng.uniform(0, np.pi, (5, 3)), np.array([0, 1, 2, 0, 1])
        hybrid.loss_and_grads(model, (X, y))
        assert calls == {"_rot_mats": 1, "_layer_blocks": 1}

    @pytest.mark.parametrize("hidden_activation, single_layer_head",
                             [*((a, False) for a in nn.ACTIVATIONS), ("sigmoid", True)])
    def test_gradients_equal_the_public_kernels(self, hidden_activation,
                                                single_layer_head):
        rng = np.random.default_rng(13)
        model = hybrid.init_model(CircuitSpec(3, 2, "X", 2), 3, rng, hidden=(4, 5),
                                  hidden_activation=hidden_activation,
                                  single_layer_head=single_layer_head)
        X, y = rng.uniform(0, np.pi, (6, 3)), np.array([0, 1, 2, 2, 1, 0])
        _, grads = hybrid.loss_and_grads(model, (X, y))
        # the same step through nn.dense_backward, which recomputes each
        # layer's output, and qgrad.adjoint_vjp, which rebuilds the circuit
        states, q_out = qsim.forward_states(X, model.qweights, model.spec)
        acts = [q_out]
        for layer in model.head.layers:
            acts.append(nn.dense_forward(layer, acts[-1]))
        upstream = np.zeros_like(acts[-1])
        upstream[np.arange(6), y] = -1.0 / (6 * np.clip(acts[-1][np.arange(6), y],
                                                          nn.PROB_CLIP, None))
        for i in range(len(model.head.layers) - 1, -1, -1):
            gw, gb, upstream = nn.dense_backward(model.head.layers[i], acts[i], upstream)
            np.testing.assert_array_equal(grads.head[i][0], gw)
            np.testing.assert_array_equal(grads.head[i][1], gb)
        np.testing.assert_array_equal(grads.qweights, qgrad.adjoint_vjp(
            states, upstream, model.qweights, model.spec))


class TestTrainEpoch:
    def test_zero_learning_rate_leaves_model_unchanged(self):
        rng = np.random.default_rng(3)
        model = hybrid.init_model(CircuitSpec(2, 1), 2, rng)
        X, y = toy_blobs(np.random.default_rng(4), n_per_class=8)
        out, rec = hybrid.train_epoch(model, (X, y),
                                      TrainConfig(1, 0.0, 4, rng_seed=0))
        np.testing.assert_array_equal(out.qweights, model.qweights)
        for a, b in zip(out.head.layers, model.head.layers):
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.bias, b.bias)

    def test_loss_decreases_on_separable_toy(self):
        rng = np.random.default_rng(5)
        X, y = toy_blobs(np.random.default_rng(6), n_per_class=20)
        model = hybrid.init_model(CircuitSpec(2, 1), 2, rng, hidden=(8,),
                                  hidden_activation="relu")
        before, _, _ = hybrid.evaluate(model, X, y)
        config = TrainConfig(1, 0.1, 8, rng_seed=7)
        for _ in range(3):
            model, rec = hybrid.train_epoch(model, (X, y), config)
        after, _, _ = hybrid.evaluate(model, X, y)
        assert after <= before

    def test_full_batch_equals_single_gradient_step(self):
        rng = np.random.default_rng(9)
        X, y = toy_blobs(np.random.default_rng(10), n_per_class=6)
        model = hybrid.init_model(CircuitSpec(2, 1), 2, rng)
        config = TrainConfig(1, 0.05, batch_size=len(y), rng_seed=11)
        stepped, _ = hybrid.train_epoch(model, (X, y), config)
        # manual full-batch step over the same (shuffled) rows
        order = np.random.default_rng(11).permutation(len(y))
        _, grads = hybrid.loss_and_grads(model, (X[order], y[order]))
        manual = hybrid.apply_gradients(model, grads, 0.05)
        np.testing.assert_allclose(stepped.qweights, manual.qweights, atol=1e-12)
        for a, b in zip(stepped.head.layers, manual.head.layers):
            np.testing.assert_allclose(a.weights, b.weights, atol=1e-12)


class TestFit:
    def test_history_length(self):
        rng = np.random.default_rng(21)
        X, y = toy_blobs(np.random.default_rng(22), n_per_class=6)
        model = hybrid.init_model(CircuitSpec(2, 1), 2, rng)
        _, history = hybrid.fit(model, (X, y), (X, y),
                                TrainConfig(1, 0.05, 4, rng_seed=0))
        assert len(history) == 1
        assert np.isfinite(history[0].val_loss)

    def test_separable_toy_reaches_high_accuracy(self):
        rng = np.random.default_rng(31)
        Xtr, ytr = toy_blobs(np.random.default_rng(32), n_per_class=40)
        Xval, yval = toy_blobs(np.random.default_rng(33), n_per_class=20)
        model = hybrid.init_model(CircuitSpec(2, 1), 2, rng, hidden=(8,),
                                  hidden_activation="relu")
        config = TrainConfig(50, 0.1, 8, rng_seed=34)
        model, history = hybrid.fit(model, (Xtr, ytr), (Xval, yval), config)
        assert history[-1].val_accuracy >= 0.95
        first = np.mean([r.train_loss for r in history[:10]])
        last = np.mean([r.train_loss for r in history[-10:]])
        assert last < first

    def test_seeded_determinism(self):
        rng_data = np.random.default_rng(41)
        X, y = toy_blobs(rng_data, n_per_class=10)
        config = TrainConfig(3, 0.1, 4, rng_seed=42)
        histories = []
        for _ in range(2):
            model = hybrid.init_model(CircuitSpec(2, 1), 2,
                                      np.random.default_rng(43))
            _, history = hybrid.fit(model, (X, y), (X, y), config)
            histories.append(history)
        assert histories[0] == histories[1]


class TestDivergence:
    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -0.1])
    def test_train_config_rejects_bad_learning_rate(self, lr):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(1, lr, 4)

    def test_diverging_step_names_row_type_epoch_and_batch(self):
        model = hybrid.init_model(CircuitSpec(2, 1), 2, np.random.default_rng(3),
                                  row_type="personal", hidden=(8,),
                                  hidden_activation="relu")
        X, y = toy_blobs(np.random.default_rng(4), n_per_class=8)
        with pytest.raises(ValueError, match=r"row type 'personal': training "
                           r"diverged at epoch 1, batch \d+ of 4"):
            hybrid.fit(model, (X, y), None, TrainConfig(2, 1e308, 4, rng_seed=0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_step_warns_nothing_first(self):
        # numpy's overflow warnings, errors here, must not precede the named one
        self.test_diverging_step_names_row_type_epoch_and_batch()


def assert_same_model(a, b):
    np.testing.assert_array_equal(a.qweights, b.qweights)
    for la, lb in zip(a.head.layers, b.head.layers, strict=True):
        np.testing.assert_array_equal(la.weights, lb.weights)
        np.testing.assert_array_equal(la.bias, lb.bias)


class TestStackedFit:
    """A stack of models trains in lockstep exactly as each model alone."""

    @pytest.mark.parametrize("n_qubits, n_layers, hidden_activation, single_layer_head", [
        (1, 2, "sigmoid", False),   # one wire: no CNOT ring
        (2, 1, "relu", False),
        (3, 2, "softmax", False),
        (3, 1, "identity", False),
        (2, 2, "sigmoid", True),
        (6, 1, "relu", False),      # two wire blocks
    ])
    def test_stack_equals_separate_fits(self, n_qubits, n_layers, hidden_activation,
                                        single_layer_head):
        rng = np.random.default_rng(81)
        spec = CircuitSpec(n_qubits, n_layers)
        # batch 4: 23 rows end on a short batch of 3, 17 and 9 on one of 1,
        # and the 9-row model sits out the epoch's last three batches
        sizes, val_sizes = (23, 17, 9), (5, 4, 6)
        rates, seeds = (0.3, 0.05, 0.0), (11, 12, 13)
        sets = [(rng.uniform(0, np.pi, (m, n_qubits)), rng.integers(0, 3, m))
                for m in sizes + val_sizes]
        models = [hybrid.init_model(spec, 3, np.random.default_rng(90 + i), hidden=(4, 5),
                                    hidden_activation=hidden_activation,
                                    single_layer_head=single_layer_head)
                  for i in range(len(sizes))]

        def stacked_set(parts, part_sizes):
            return hybrid.StackedSet(np.concatenate([X for X, _ in parts]),
                                     np.concatenate([y for _, y in parts]), part_sizes)

        config = TrainConfig(3, rates, 4, rng_seed=seeds)
        trained, histories = hybrid.fit(models, stacked_set(sets[:3], sizes),
                                        stacked_set(sets[3:], val_sizes), config)
        for i, model in enumerate(models):
            alone, history = hybrid.fit(model, sets[i], sets[3 + i],
                                        TrainConfig(3, rates[i], 4, rng_seed=seeds[i]))
            assert_same_model(trained[i], alone)
            assert histories[i] == history
        assert_same_model(trained[2], models[2])  # learning rate 0

    def test_stack_needs_one_layout(self):
        rng = np.random.default_rng(82)
        models = [hybrid.init_model(CircuitSpec(2, 1), 2, rng),
                  hybrid.init_model(CircuitSpec(2, 1), 2, rng, hidden=(8,))]
        X, y = toy_blobs(rng, n_per_class=4)
        data = hybrid.StackedSet(X, y, (4, 4))
        with pytest.raises(ShapeError, match="head layout"):
            hybrid.fit(models, data, None, TrainConfig(1, 0.1, 4))
        with pytest.raises(ValueError, match="broadcast"):  # 3 rates for 2 models
            hybrid.fit(models[:1] * 2, data, None, TrainConfig(1, (0.1, 0.2, 0.3), 4))
        with pytest.raises(ShapeError, match="2 models need a data set of 2 parts"):
            hybrid.fit(models[:1] * 2, hybrid.StackedSet(X, y, (4, 3)), None,
                       TrainConfig(1, 0.1, 4))

    def test_stacked_divergence_names_the_first_diverged_model(self):
        rng = np.random.default_rng(83)
        models = [hybrid.init_model(CircuitSpec(2, 1), 2, np.random.default_rng(3),
                                    hidden=(8,), hidden_activation="relu")] * 3
        X, y = toy_blobs(np.random.default_rng(4), n_per_class=8)
        data = hybrid.StackedSet(np.tile(X, (3, 1)), np.tile(y, 3), (16, 16, 16))
        with pytest.raises(DivergenceError, match=r"^training diverged at epoch 1, "
                           r"batch \d+ of 4") as info:
            hybrid.fit(models, data, None, TrainConfig(2, (0.1, 1e308, 1e308), 4))
        assert info.value.index == 1


class TestPredict:
    def test_symmetric_tie_goes_to_class_zero(self):
        spec = CircuitSpec(2, 1)
        head = MLPHead([DenseLayer(np.zeros((3, 2)), np.zeros(3), "softmax")])
        model = HybridModel(spec, np.zeros((1, 2, 3)), head, 3)
        cls, probs = hybrid.predict(model, [0.0, 0.0])
        assert cls == 0

    def test_argmax(self):
        spec = CircuitSpec(2, 1)
        bias = np.log([0.1, 0.7, 0.2])
        head = MLPHead([DenseLayer(np.zeros((3, 2)), bias, "softmax")])
        model = HybridModel(spec, np.zeros((1, 2, 3)), head, 3)
        cls, probs = hybrid.predict(model, [0.3, 0.4])
        assert cls == 1
        np.testing.assert_allclose(probs, [0.1, 0.7, 0.2], atol=1e-12)

    def test_invariant_under_constant_bias_shift(self):
        rng = np.random.default_rng(51)
        model = hybrid.init_model(CircuitSpec(2, 1), 3, rng)
        x = rng.uniform(0, np.pi, size=2)
        cls, _ = hybrid.predict(model, x)
        out = model.head.layers[-1]
        shifted = HybridModel(
            model.spec, model.qweights,
            MLPHead(model.head.layers[:-1] + [
                DenseLayer(out.weights, out.bias + 5.0, out.activation)]),
            model.n_classes)
        cls2, _ = hybrid.predict(shifted, x)
        assert cls == cls2


class TestKFoldSplit:
    def test_fold_sizes(self):
        folds = hybrid.kfold_split(10, 5, seed=0)
        assert all(len(val) == 2 for _, val in folds)

    def test_partition_law(self):
        folds = hybrid.kfold_split(17, 4, seed=1)
        seen = np.concatenate([val for _, val in folds])
        assert sorted(seen) == list(range(17))
        for train, val in folds:
            assert set(train) & set(val) == set()
            assert sorted(np.concatenate([train, val])) == list(range(17))

    def test_stratified(self):
        labels = np.array(["A"] * 8 + ["B"] * 2)
        folds = hybrid.kfold_split(10, 2, seed=2, labels=labels)
        for _, val in folds:
            assert sum(labels[i] == "B" for i in val) == 1

    def test_k_validation(self):
        with pytest.raises(ValueError):
            hybrid.kfold_split(3, 4, seed=0)
        with pytest.raises(ValueError):
            hybrid.kfold_split(5, 1, seed=0)


class TestGridSearch:
    def small_data(self):
        rng = np.random.default_rng(61)
        return toy_blobs(rng, n_per_class=12)

    def test_combination_count_and_order(self):
        grid = HyperGrid((1, 2, 3), (2, 3, 4), (0.01, 0.001), (16, 32), (50, 100))
        combos = grid.combinations()
        assert len(combos) == 72
        assert combos[0] == {"n_layers": 1, "n_qubits": 2, "learning_rate": 0.01,
                             "batch_size": 16, "epochs": 50}
        assert combos[-1] == {"n_layers": 3, "n_qubits": 4,
                              "learning_rate": 0.001, "batch_size": 32,
                              "epochs": 100}

    def test_singleton_grid(self):
        X, y = self.small_data()
        grid = HyperGrid((1,), (2,), (0.1,), (8,), (1,))
        best, board = hybrid.grid_search(grid, (X, y), k=2, seed=0)
        assert len(board) == 1
        assert best == grid.combinations()[0]

    def test_duplicated_config_tie_breaks_by_declaration_order(self):
        X, y = self.small_data()
        # identical choices listed twice produce identical fold scores
        grid = HyperGrid((1, 1), (2,), (0.1,), (8,), (1,))
        best, board = hybrid.grid_search(grid, (X, y), k=2, seed=0)
        assert board[0].mean_val_macro_f1 == board[1].mean_val_macro_f1
        assert board[0].order == 0

    def test_circuit_follows_embedding_axis_and_clamped_range(self, monkeypatch):
        X, y = self.small_data()
        X = np.hstack([X, X[:, :1]])
        specs, init_model = [], hybrid.init_model

        def recording_init(spec, *args, **kwargs):
            specs.append(spec)
            return init_model(spec, *args, **kwargs)

        monkeypatch.setattr(hybrid, "init_model", recording_init)
        grid = HyperGrid((1,), (2, 3), (0.1,), (8,), (1,))
        hybrid.grid_search(grid, (X, y), k=2, seed=0, embedding_axis="X",
                           entangler_range=2)
        assert {(s.n_qubits, s.embedding_rotation_axis, s.entangler_range)
                for s in specs} == {(2, "X", 1), (3, "X", 2)}

    def test_seeded_reproducibility(self):
        X, y = self.small_data()
        grid = HyperGrid((1, 2), (2,), (0.1, 0.01), (8,), (1,))
        runs = []
        for _ in range(2):
            best, board = hybrid.grid_search(grid, (X, y), k=2, seed=7)
            runs.append([(r.order, r.mean_val_macro_f1, r.mean_val_accuracy)
                         for r in board])
        assert runs[0] == runs[1]


def per_fit_grid_search(grid, data, k, seed, augment=None, **model_kwargs):
    """Grid search as a plain loop of one fit per (combination, fold): the
    reference that the lockstep search must reproduce exactly."""
    X, y = data
    n_classes = int(np.max(y)) + 1
    folds = hybrid.kfold_split(len(y), k, seed, labels=y)
    board = []
    for ci, params in enumerate(grid.combinations()):
        q = params["n_qubits"]
        spec = hybrid.circuit_spec(q, params["n_layers"])
        f1s, accs = [], []
        for fi, (tr, val) in enumerate(folds):
            fold_seed = int(np.random.SeedSequence([seed, ci, fi]).generate_state(1)[0])
            Xtr, ytr = X[tr, :q], y[tr]
            if augment is not None:
                Xtr, ytr = augment(Xtr, ytr, fold_seed)
            model = hybrid.init_model(spec, n_classes, np.random.default_rng(fold_seed),
                                      **model_kwargs)
            config = TrainConfig(params["epochs"], params["learning_rate"],
                                 params["batch_size"], rng_seed=fold_seed)
            model, _ = hybrid.fit(model, (Xtr, ytr), None, config)
            _, acc, probs = hybrid.evaluate(model, X[val, :q], y[val])
            f1s.append(hybrid._macro_f1(y[val], np.argmax(probs, axis=1), n_classes))
            accs.append(acc)
        board.append(hybrid.GridResult(params, float(np.mean(f1s)), float(np.mean(accs)),
                                       ci, f1s))
    board.sort(key=lambda r: (-r.mean_val_macro_f1, -r.mean_val_accuracy, r.order))
    return board[0].params, board


def grow_by_seed(X, y, seed):
    """An augmentation that adds 1-5 repeated rows, so that folds and
    combinations train on unequal row counts."""
    rng = np.random.default_rng(seed)
    extra = rng.integers(0, len(y), size=rng.integers(1, 6))
    return np.vstack([X, X[extra]]), np.concatenate([y, y[extra]])


class TestLockstepGridSearch:
    GRID = HyperGrid((1, 2), (2, 3), (0.2, 0.05), (4, 8), (2,))

    def data(self):
        X, y = toy_blobs(np.random.default_rng(62), n_per_class=12)
        return np.hstack([X, X[:, :1]]), y

    @staticmethod
    def count_rows(monkeypatch, totals):
        """Wrap hybrid.fit to add training rows x epochs per call, as a
        caller that counts the training work does."""
        fit = hybrid.fit

        def counted(model, train_set, val_set, config):
            x = train_set.X if hasattr(train_set, "X") else train_set[0]
            totals["rows"] += len(np.asarray(x)) * config.epochs
            totals["calls"] += 1
            return fit(model, train_set, val_set, config)

        monkeypatch.setattr(hybrid, "fit", counted)

    @pytest.mark.parametrize("budget", [hybrid.MAX_STACK_AMPLITUDES, 64])
    def test_equals_a_per_fit_loop(self, monkeypatch, budget):
        monkeypatch.setattr(hybrid, "MAX_STACK_AMPLITUDES", budget)
        data = self.data()
        kwargs = dict(hidden=(4,), hidden_activation="relu")
        best, board = hybrid.grid_search(self.GRID, data, k=3, seed=5,
                                         augment=grow_by_seed, **kwargs)
        ref_best, ref_board = per_fit_grid_search(self.GRID, data, 3, 5,
                                                  augment=grow_by_seed, **kwargs)
        assert best == ref_best
        assert ([(r.params, r.mean_val_macro_f1, r.mean_val_accuracy, r.order, r.fold_f1)
                 for r in board] ==
                [(r.params, r.mean_val_macro_f1, r.mean_val_accuracy, r.order, r.fold_f1)
                 for r in ref_board])

    def test_one_model_init_per_fit(self, monkeypatch):
        calls, init_model = [], hybrid.init_model
        monkeypatch.setattr(hybrid, "init_model",
                            lambda *a, **kw: calls.append(a[0]) or init_model(*a, **kw))
        hybrid.grid_search(self.GRID, self.data(), k=3, seed=5)
        assert len(calls) == len(self.GRID.combinations()) * 3

    def test_fit_calls_count_the_rows_of_the_separate_fits(self, monkeypatch):
        stacked, separate = {"rows": 0, "calls": 0}, {"rows": 0, "calls": 0}
        self.count_rows(monkeypatch, stacked)
        hybrid.grid_search(self.GRID, self.data(), k=3, seed=5, augment=grow_by_seed)
        monkeypatch.undo()
        self.count_rows(monkeypatch, separate)
        per_fit_grid_search(self.GRID, self.data(), 3, 5, augment=grow_by_seed)
        assert stacked["rows"] == separate["rows"]
        # 8 circuit shapes, each of 2 learning rates x 3 folds
        assert stacked["calls"] == 8 and separate["calls"] == 48

    def test_ten_qubit_fits_train_alone(self, monkeypatch):
        stacks, fit = [], hybrid.fit

        def recording(model, *args):
            stacks.append(len(model))
            return fit(model, *args)

        monkeypatch.setattr(hybrid, "fit", recording)
        rng = np.random.default_rng(63)
        X, y = rng.uniform(0, np.pi, (40, 10)), np.repeat([0, 1], 20)
        grid = HyperGrid((1,), (10,), (0.1, 0.2), (16,), (1,))
        hybrid.grid_search(grid, (X, y), k=2, seed=0)
        # k * min(B, m) * 2**n = 16 * 1024 amplitudes exceed the budget alone
        assert stacks == [1, 1, 1, 1]


class TestSerialization:
    def test_lossless_round_trip(self, tmp_path):
        rng = np.random.default_rng(71)
        model = hybrid.init_model(CircuitSpec(3, 2), 3, rng, row_type="rt")
        path = tmp_path / "model.json"
        serialize.save_model(str(path), model)
        loaded, pipe = serialize.load_model(str(path))
        assert pipe is None
        np.testing.assert_array_equal(loaded.qweights, model.qweights)
        assert loaded.spec == model.spec
        assert loaded.row_type == "rt"
        for a, b in zip(loaded.head.layers, model.head.layers):
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.bias, b.bias)
            assert a.activation == b.activation

    def test_format_guard(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(ValueError):
            serialize.load_model(str(path))
