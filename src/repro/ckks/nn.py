"""Encrypted neural-network inference — the §V-C "DNN support".

Small feed-forward networks over packed ciphertexts: dense layers run
as diagonal-method matrix-vector products, activations as Chebyshev
polynomial evaluations (the AESPA-style low-degree polynomial
activations the paper's DNN workloads use [37], [64]).

All samples of a batch pack into one ciphertext block-by-block; layers
operate on every block simultaneously — the same packing discipline the
evaluated CNN workloads rely on.

The weights are fixed once a network is built, so :class:`EncryptedMlp`
plans each layer once — the diagonal transform, the bias plaintexts
and the activation's Chebyshev coefficients — and every inference
reuses that plan, the preprocessed-plaintext discipline of §III-B.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ckks.cipher import Ciphertext, Plaintext
from repro.ckks.linalg import replicated_diagonals
from repro.ckks.linear_transform import LinearTransform
from repro.ckks.polyeval import ChebyshevEvaluator, chebyshev_coefficients
from repro.errors import ParameterError


@dataclass
class DenseLayer:
    """A dense layer ``y = W x + b`` over each packed block."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        # Read-only copies: a network plans each layer from these once,
        # so an in-place write would leave that plan silently stale.
        self.weights = np.array(self.weights, dtype=np.float64)
        self.bias = np.array(self.bias, dtype=np.float64)
        self.weights.flags.writeable = False
        self.bias.flags.writeable = False
        if self.weights.ndim != 2:
            raise ParameterError("weights must be a matrix")
        if self.bias.shape != (self.weights.shape[0],):
            raise ParameterError("bias length must match output features")

    @property
    def in_features(self) -> int:
        return self.weights.shape[1]

    @property
    def out_features(self) -> int:
        return self.weights.shape[0]

    def reference(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weights.T + self.bias


@dataclass
class Activation:
    """A polynomial activation fit on a fixed interval.

    ``kind`` selects the target function: AESPA-style square, a
    Chebyshev-fit softplus, or tanh.
    """

    kind: str = "square"
    degree: int = 7
    interval: tuple = (-4.0, 4.0)

    def target(self):
        if self.kind == "square":
            return np.square
        if self.kind == "softplus":
            return lambda x: np.log1p(np.exp(np.asarray(x)))
        if self.kind == "tanh":
            return np.tanh
        raise ParameterError(f"unknown activation {self.kind!r}")

    def reference(self, x: np.ndarray) -> np.ndarray:
        return self.target()(np.clip(x, *self.interval))


class _DensePlan:
    """One dense layer's preprocessed operands, reused by every inference.

    The transform's diagonals come straight from the ``block x block``
    weights (the tiled ``slots x slots`` operator is never built) and it
    caches their encodings itself; the bias is encoded once per
    ``(scale, basis)`` it meets.
    """

    def __init__(self, evaluator, layer: DenseLayer, block: int):
        slots = evaluator.params.slot_count
        padded = np.zeros((block, block))
        padded[:layer.out_features, :layer.in_features] = layer.weights
        self.encoder = evaluator.encoder
        self.transform = LinearTransform(
            evaluator, replicated_diagonals(padded, slots))
        self.bias = np.tile(np.pad(layer.bias,
                                   (0, block - layer.out_features)),
                            slots // block)
        self._bias_plaintexts: dict = {}

    def bias_plaintext(self, ct: Ciphertext) -> Plaintext:
        key = (ct.scale, ct.basis)
        plain = self._bias_plaintexts.get(key)
        if plain is None:
            plain = self.encoder.encode(self.bias, scale=ct.scale,
                                        basis=ct.basis)
            self._bias_plaintexts[key] = plain
        return plain


@dataclass
class EncryptedMlp:
    """A small MLP evaluated homomorphically.

    ``block`` is the per-sample slot block (a power of two at least as
    large as the widest layer).  :meth:`required_rotations` reports the
    rotation keys needed — generate them before :meth:`infer`.
    """

    evaluator: object
    layers: list
    block: int
    #: One plan per layer: a :class:`_DensePlan` or the activation's
    #: Chebyshev coefficients.
    _plans: list = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        if self.block & (self.block - 1) != 0:
            raise ParameterError("block must be a power of two")
        self.chebyshev = ChebyshevEvaluator(self.evaluator)
        for layer in self.layers:
            if isinstance(layer, DenseLayer):
                if max(layer.in_features, layer.out_features) > self.block:
                    raise ParameterError(
                        f"layer {layer.out_features}x{layer.in_features} "
                        f"exceeds block {self.block}")
                plan = _DensePlan(self.evaluator, layer, self.block)
            elif isinstance(layer, Activation):
                plan = chebyshev_coefficients(
                    layer.target(), layer.degree, layer.interval)
            else:
                raise ParameterError(f"unknown layer {type(layer).__name__}")
            self._plans.append(plan)

    # -- Planning -------------------------------------------------------------------

    def required_rotations(self, method: str = "bsgs") -> list:
        needed = set()
        for plan in self._plans:
            if isinstance(plan, _DensePlan):
                needed.update(plan.transform.required_rotations(method))
        return sorted(needed)

    def depth(self) -> int:
        """Multiplicative levels one inference consumes."""
        total = 0
        for layer in self.layers:
            if isinstance(layer, DenseLayer):
                total += 1
            elif isinstance(layer, Activation):
                total += self.chebyshev.depth(layer.degree)
        return total

    # -- Execution --------------------------------------------------------------------

    def pack(self, batch: np.ndarray) -> np.ndarray:
        """Pack a (samples, features) batch into one slot vector."""
        batch = np.asarray(batch, dtype=np.float64)
        samples, features = batch.shape
        if samples * self.block > self.evaluator.params.slot_count:
            raise ParameterError("batch exceeds the slot space")
        slots = np.zeros(self.evaluator.params.slot_count)
        for s in range(samples):
            slots[s * self.block:s * self.block + features] = batch[s]
        return slots

    def unpack(self, slots: np.ndarray, samples: int,
               features: int) -> np.ndarray:
        out = np.empty((samples, features))
        for s in range(samples):
            out[s] = slots[s * self.block:s * self.block + features].real
        return out

    def infer(self, ct: Ciphertext, method: str = "bsgs") -> Ciphertext:
        """Run the network on a packed, encrypted batch."""
        for layer, plan in zip(self.layers, self._plans):
            if isinstance(plan, _DensePlan):
                ct = plan.transform.apply(ct, method)
                ct = self.evaluator.add_plain(ct, plan.bias_plaintext(ct))
            else:
                ct = self.chebyshev.evaluate(ct, plan, layer.interval)
        return ct

    def reference(self, batch: np.ndarray) -> np.ndarray:
        """Cleartext forward pass (with activation-interval clipping)."""
        x = np.asarray(batch, dtype=np.float64)
        for layer in self.layers:
            if isinstance(layer, DenseLayer):
                width = x.shape[1]
                if width < layer.in_features:
                    x = np.pad(x, ((0, 0), (0, layer.in_features - width)))
                x = layer.reference(x[:, :layer.in_features])
            else:
                x = layer.reference(x)
        return x
