"""The paper's discriminator: matched filters + modular per-qubit networks.

Every qubit gets nine matched-filter scores (QMF/RMF/EMF, Tab. III); the
scores of *all* qubits are merged into one feature vector (45 entries for
five qubits) so each per-qubit network sees its neighbors and can undo
crosstalk. Each network is tiny — input P = 9n, hidden layers floor(P/2)
and floor(P/4), output k — so total model size grows polynomially in
(n, k) instead of exponentially (Sec V.C).
"""

from __future__ import annotations

import numpy as np

from repro._util import as_2d_float, check_random_state, child_rng
from repro.data.basis import digits_to_state
from repro.data.dataset import ReadoutCorpus
from repro.discriminators.base import Discriminator
from repro.discriminators.features import MatchedFilterFeatureExtractor
from repro.discriminators.registry import NN_LEARNING_RATE, register
from repro.exceptions import ConfigurationError
from repro.ml.dataset import StandardScaler
from repro.ml.nn import Adam, MLPClassifier, train_classifier

__all__ = ["MLRDiscriminator"]

_FLOAT32 = np.dtype(np.float32)


def _top2_levels_and_margins(
    logits: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """First-max levels and top-2 softmax margins over the level axis.

    ``logits`` is level-major, ``(..., n_levels, n)`` with ``n_levels
    >= 2``, so each level is one contiguous row per head; it is
    overwritten. The top two logits are a running max and second max
    over the few level rows (cheaper than numpy reductions over so
    short an axis). ``p_top - p_second`` is ``(1 - exp(second - top))
    / sum_j exp(l_j - top)``, in the logits' dtype.

    A level is the first maximal logit, as in
    :meth:`MLPClassifier.predict`, read off the running max's own
    comparisons rather than an ``argmax`` over the level axis (whose
    cost grows faster with the batch): level 1 where it beats level 0,
    then each further level where its row beats the running top. The
    comparisons are strict, so a tie keeps the earlier level, exactly
    as ``argmax`` does.
    """
    first, following = logits[..., 0, :], logits[..., 1, :]
    levels = (following > first).astype(np.intp)
    top = np.maximum(first, following)
    second = np.minimum(first, following)
    for level in range(2, logits.shape[-2]):
        row = logits[..., level, :]
        levels[row > top] = level
        np.maximum(second, np.minimum(row, top), out=second)
        np.maximum(top, row, out=top)
    logits -= top[..., None, :]
    norm = np.add.reduce(np.exp(logits, out=logits), axis=-2)
    second -= top
    margins = np.subtract(1.0, np.exp(second, out=second), out=second)
    margins /= norm
    return levels, margins


@register(
    "ours",
    aliases=("mlr",),
    description="matched filters + modular per-qubit NNs (the paper's design)",
)
class MLRDiscriminator(Discriminator):
    """Multi-Level Readout discriminator (the paper's "OURS").

    Parameters
    ----------
    include_rmf, include_emf:
        Feature-family toggles, used by the ablation benches; the paper's
        design enables both.
    neighbor_features:
        When True (the paper's design), every per-qubit network sees the
        matched-filter scores of *all* qubits, which is what lets it undo
        readout crosstalk; False restricts each head to its own qubit's
        scores (the crosstalk ablation).
    decimation, variance_mode, min_error_traces:
        Matched-filter front-end configuration.
    epochs, batch_size, learning_rate, seed:
        Training budget for the per-qubit networks.
    hidden_shrink:
        Hidden widths are ``floor(P / hidden_shrink[i])`` for input width
        P; the paper uses (2, 4).
    """

    name = "ours"

    @classmethod
    def from_profile(cls, profile) -> "MLRDiscriminator":
        return cls(
            epochs=profile.nn_epochs,
            batch_size=profile.batch_size,
            learning_rate=NN_LEARNING_RATE,
            seed=profile.seed + 10,
        )

    def __init__(
        self,
        include_rmf: bool = True,
        include_emf: bool = True,
        neighbor_features: bool = True,
        decimation: int = 5,
        variance_mode: str = "sum",
        min_error_traces: int = 6,
        epochs: int = 30,
        batch_size: int = 128,
        learning_rate: float = 1e-3,
        weight_decay: float = 1e-3,
        patience: int = 20,
        hidden_shrink: tuple[int, ...] = (2, 4),
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if not hidden_shrink or any(s < 1 for s in hidden_shrink):
            raise ConfigurationError("hidden_shrink must be positive factors")
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.patience = patience
        self.hidden_shrink = tuple(int(s) for s in hidden_shrink)
        self.neighbor_features = neighbor_features
        self._rng = check_random_state(seed)
        self.extractor = MatchedFilterFeatureExtractor(
            include_qmf=True,
            include_rmf=include_rmf,
            include_emf=include_emf,
            decimation=decimation,
            variance_mode=variance_mode,
            min_error_traces=min_error_traces,
        )
        self.models: list[MLPClassifier] | None = None
        self._head_stack: tuple | None = None
        self.scaler: StandardScaler | None = None
        # Calibration-time references for online drift detection: the
        # joint-assignment distribution and mean top-2 probability margin
        # this model produced on its own training corpus. Carried in the
        # artifact so a serving monitor can score live traffic against
        # the device as it looked when the kernels were fitted.
        self.reference_assignment_: np.ndarray | None = None
        self.reference_margin_: float | None = None

    @property
    def n_parameters(self) -> int:
        if self.models is None:
            raise ConfigurationError(
                "architecture unknown before fit(); call fit() first"
            )
        return sum(m.n_parameters for m in self.models)

    def _architecture(self, n_features: int, n_levels: int) -> tuple[int, ...]:
        hidden = tuple(
            max(2, n_features // shrink) for shrink in self.hidden_shrink
        )
        return (n_features, *hidden, n_levels)

    def _head_features(self, x: np.ndarray, qubit: int) -> np.ndarray:
        """Feature block fed to one qubit's head."""
        if self.neighbor_features:
            return x
        width = self.extractor.filters_per_qubit
        return x[:, width * qubit : width * (qubit + 1)]

    def fit(self, corpus: ReadoutCorpus, indices: np.ndarray) -> "MLRDiscriminator":
        idx = self._resolve_indices(corpus, indices)
        features = self.extractor.fit_transform(corpus, idx)
        self.scaler = StandardScaler()
        x = self.scaler.fit_transform(features)
        self.models = []
        for q in range(corpus.n_qubits):
            x_q = self._head_features(x, q)
            model = MLPClassifier(
                self._architecture(x_q.shape[1], corpus.n_levels),
                seed=child_rng(self._rng, q, 0),
            )
            train_classifier(
                model,
                x_q,
                corpus.qubit_labels(q)[idx],
                epochs=self.epochs,
                batch_size=self.batch_size,
                optimizer=Adam(self.learning_rate, weight_decay=self.weight_decay),
                patience=self.patience,
                seed=child_rng(self._rng, q, 1),
            )
            self.models.append(model)
        self._stack_heads()
        self._fitted = True
        self._record_reference(features, corpus.n_levels)
        return self

    def _stack_heads(self) -> None:
        """Merge the scaler and the heads into ``(weights, bias)``
        layers that read raw matched-filter scores.

        The fitted standardization is folded into layer 1 — ``W1 / σ``
        row-wise and ``b1 − (μ/σ)·W1`` — so serving runs no scale pass.
        The stack is feature-major: layer 1 of all heads is one
        ``(n_heads · h1, n_features)`` matrix, head ``q`` filling row
        block ``q`` on the columns of the features it reads
        (block-diagonal without ``neighbor_features``), with an
        ``(n_heads · h1, 1)`` bias; deeper layers are ``(n_heads,
        h_out, h_in)`` stacks with ``(n_heads, h_out, 1)`` biases for
        one batched ``matmul``. Hidden layers must be ReLU and the
        output identity, as fit builds, so serving runs its ReLUs in
        place; heads must share one architecture. Folded in float64 and
        cast to float32 once, at fit, artifact load and scaler
        recalibration; the float64 scaler and networks (which offline
        ``predict`` keeps using) are untouched.

        Biases stay a separate ``+=`` after each GEMM. Folding them in
        as a constant unit per head (a zero-weight, bias-1 hidden row
        whose ReLU is 1, times a bias column in the next layer) saves no
        call, and at one shot numpy's matrix-vector path sums that
        column in another order: margins moved in the last bits.
        """
        heads = [model.network.layers for model in self.models]
        activations = [
            [layer.activation.name for layer in layers] for layers in heads
        ]
        served = ["relu"] * (len(heads[0]) - 1) + ["identity"]
        if any(names != served for names in activations):
            raise ConfigurationError(
                "the serving stack needs ReLU hidden layers and an identity "
                f"output on every head, got {activations}"
            )
        width = heads[0][0].n_out
        features = np.arange(len(heads) * self.extractor.filters_per_qubit)
        mean, scale = self.scaler.mean_, self.scaler.scale_
        first = np.zeros((len(heads) * width, features.size))
        bias = np.empty((len(heads) * width, 1))
        for q, layers in enumerate(heads):
            cols = self._head_features(features[None], q)[0]
            block = slice(q * width, (q + 1) * width)
            weights = layers[0].weights / scale[cols, None]
            first[block, cols] = weights.T
            bias[block, 0] = layers[0].bias - mean[cols] @ weights
        stack = [(first, bias)] + [
            (
                np.stack([layers[depth].weights.T for layers in heads]),
                np.stack([layers[depth].bias for layers in heads])[..., None],
            )
            for depth in range(1, len(heads[0]))
        ]
        self._head_stack = (
            (len(heads), width),
            tuple(
                (
                    np.ascontiguousarray(weights, dtype=np.float32),
                    bias.astype(np.float32),
                )
                for weights, bias in stack
            ),
        )

    def head_levels_and_margin(
        self, x: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Per-qubit argmax levels and the mean top-2 probability margin.

        ``x`` is the raw ``(n_shots, n_features)`` matched-filter score
        matrix: the scaler is folded into the stack's layer 1. The one
        implementation both fit-time reference recording and the
        streaming engine use — drift scoring compares the two, so they
        must never diverge. All heads run at once through the float32
        stack built at fit or artifact load, feature-major (``W1 @
        x.T``, so activations are ``(n_heads, h, n_shots)`` and the
        logits level-major), in float32; ReLUs run in place and a level
        is the first maximal logit, as in :meth:`MLPClassifier.predict`.
        Only the margin mean accumulates in float64.

        A non-empty 2-D float32 ndarray — the engine's feature block —
        is used as it is, with no call spent on checking it; any other
        input is validated and cast to float32 once.
        """
        stack = self._head_stack
        if stack is None:
            self._require_fitted()
        if (
            x.__class__ is not np.ndarray
            or x.dtype != _FLOAT32
            or x.ndim != 2
            or not x.shape[0]
        ):
            x = as_2d_float(x, dtype=np.float32)
        (n_heads, width), ((weights, bias), *deeper, last) = stack
        h = weights @ x.T
        h += bias
        np.maximum(h, 0, out=h)
        # Layer 1's (n_heads * h1, n) output, viewed as (n_heads, h1, n).
        h = h.reshape(n_heads, width, x.shape[0])
        for weights, bias in deeper:
            h = np.matmul(weights, h)
            h += bias
            np.maximum(h, 0, out=h)
        weights, bias = last
        logits = np.matmul(weights, h)
        logits += bias
        levels, margins = _top2_levels_and_margins(logits)
        mean = np.add.reduce(margins, axis=None, dtype=np.float64)
        return levels.T, float(mean) / margins.size

    def _record_reference(self, x: np.ndarray, n_levels: int) -> None:
        """Snapshot the drift-detection references on the training set."""
        levels, mean_margin = self.head_levels_and_margin(x)
        joint = digits_to_state(levels, n_levels)
        counts = np.bincount(joint, minlength=n_levels ** len(self.models))
        self.reference_assignment_ = counts / counts.sum()
        self.reference_margin_ = mean_margin

    def _features(
        self, corpus: ReadoutCorpus, indices: np.ndarray | None
    ) -> np.ndarray:
        idx = self._resolve_indices(corpus, indices)
        return self.scaler.transform(self.extractor.transform(corpus, idx))

    def predict_qubit_levels(
        self, corpus: ReadoutCorpus, indices: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-qubit levels predicted by each modular head."""
        self._require_fitted()
        x = self._features(corpus, indices)
        levels = np.empty((x.shape[0], len(self.models)), dtype=np.int64)
        for q, model in enumerate(self.models):
            levels[:, q] = model.predict(self._head_features(x, q))
        return levels

    def predict(
        self, corpus: ReadoutCorpus, indices: np.ndarray | None = None
    ) -> np.ndarray:
        self._require_fitted()
        levels = self.predict_qubit_levels(corpus, indices)
        return digits_to_state(levels, corpus.n_levels)

    def with_recalibrated_scaler(
        self, corpus: ReadoutCorpus, indices: np.ndarray
    ) -> "MLRDiscriminator":
        """Copy sharing kernels and networks, with the feature scaler refit.

        This is the paper's no-retraining fast-readout mode: shortening the
        readout window truncates the matched-filter kernels, which shifts
        the score scales; refitting only the (closed-form) normalization on
        the shortened training features requires no gradient steps.
        The clone's serving stack is rebuilt, since the scaler is folded
        into its layer 1.
        """
        import copy

        self._require_fitted()
        clone = copy.copy(self)
        clone.scaler = StandardScaler()
        clone.scaler.fit(
            self.extractor.transform(corpus, self._resolve_indices(corpus, indices))
        )
        clone._stack_heads()
        return clone

    def _artifact_meta(self) -> dict:
        ext_meta, _ = self.extractor.artifact_state()
        return {
            "extractor": ext_meta,
            "neighbor_features": self.neighbor_features,
            "hidden_shrink": list(self.hidden_shrink),
            "layer_sizes": [list(m.layer_sizes) for m in self.models],
        }

    def _artifact_arrays(self) -> dict[str, np.ndarray]:
        _, arrays = self.extractor.artifact_state()
        self._pack_scaler(arrays, self.scaler)
        for q, model in enumerate(self.models):
            self._pack_mlp(arrays, model, f"model{q}")
        if self.reference_assignment_ is not None:
            arrays["reference_assignment"] = self.reference_assignment_
            arrays["reference_margin"] = np.asarray(
                [self.reference_margin_], dtype=np.float64
            )
        return arrays

    @classmethod
    def _from_artifacts(
        cls, meta: dict, arrays: dict[str, np.ndarray]
    ) -> "MLRDiscriminator":
        from repro.discriminators.features import MatchedFilterFeatureExtractor

        extractor = MatchedFilterFeatureExtractor.from_artifact_state(
            meta["extractor"], arrays
        )
        disc = cls(
            include_rmf=extractor.include_rmf,
            include_emf=extractor.include_emf,
            neighbor_features=bool(meta["neighbor_features"]),
            decimation=extractor.decimation,
            variance_mode=extractor.variance_mode,
            min_error_traces=extractor.min_error_traces,
            hidden_shrink=tuple(meta["hidden_shrink"]),
        )
        disc.extractor = extractor
        disc.scaler = cls._unpack_scaler(arrays)
        disc.models = [
            cls._unpack_mlp(sizes, arrays, f"model{q}")
            for q, sizes in enumerate(meta["layer_sizes"])
        ]
        disc._stack_heads()
        # Artifacts written before drift detection landed carry no
        # references; such models still serve, just without a monitor.
        if "reference_assignment" in arrays:
            disc.reference_assignment_ = np.asarray(
                arrays["reference_assignment"], dtype=np.float64
            )
            disc.reference_margin_ = float(arrays["reference_margin"][0])
        disc._fitted = True
        return disc

    def predict_proba_qubit(
        self,
        qubit: int,
        corpus: ReadoutCorpus,
        indices: np.ndarray | None = None,
    ) -> np.ndarray:
        """Level probabilities for one qubit's head."""
        self._require_fitted()
        if not 0 <= qubit < len(self.models):
            raise ConfigurationError(f"qubit must be in [0, {len(self.models)})")
        x = self._features(corpus, indices)
        return self.models[qubit].predict_proba(self._head_features(x, qubit))
