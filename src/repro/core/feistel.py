"""Multi-stage Feistel network with the paper's cubing round function.

Section IV-B / Fig. 7: each stage splits the ``B``-bit input into halves
``(L, R)`` and produces ``(L', R')`` with::

    L' = R XOR (L XOR K)^3      (mod 2**(B/2))
    R' = L

Decryption runs the stages with the key schedule reversed (each stage is
individually invertible: ``L = R'`` and ``R = L' XOR (R' XOR K)^3``).

Odd address widths are supported by *cycle-walking*: the permutation is built
on the next even width and re-applied until the output falls back inside the
domain.  This yields an exact permutation of ``[0, 2**B)`` for any ``B``
(expected <2 walk iterations per call) and keeps every caller oblivious to
the parity of the address width.

Both scalar ``int`` and vectorized :class:`numpy.ndarray` code paths are
provided; the vector path is what the round-granularity simulation engines
use to randomize whole windows of addresses per remapping round.  Its stage
keys broadcast against the addresses, so one pass can also give every
address its own schedule (:meth:`FeistelNetwork.encrypt_keyed`).

There are two scalar evaluators.  :meth:`FeistelNetwork.encrypt` and
:meth:`FeistelNetwork.decrypt` on an ``int`` compute every stage's cube
and are the reference; they suit a network used for a few addresses only
(a fresh key schedule per call, as the round simulators draw them).
:meth:`FeistelNetwork.scalar_ops` returns table-driven closures for a
network evaluated many times, the DFN's swap-chain walk: stage ``s``'s
round function reads only the half-width input ``x``, so
``f_s[x] = (x XOR K_s)^3 mod 2**h`` is tabulated once per network
(``n_stages * 2**h`` entries; 7 x 4096 at 2^23 lines, about 1 MB), not
the ``2**B``-entry permutation.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.util.bitops import mask
from repro.util.rng import SeedLike, as_generator

IntOrArray = Union[int, np.ndarray]
#: One keyed vector pass over ``(addresses, stage keys)``.
_Pass = Callable[[np.ndarray, np.ndarray], np.ndarray]
#: A scalar evaluator: one in-domain address to its image.
ScalarOp = Callable[[int], int]

_U64 = np.uint64


def _cube_mod(x: int, modmask: int) -> int:
    """``x**3 mod 2**h`` for scalar ``x`` (``modmask == 2**h - 1``)."""
    return (x * x * x) & modmask



class FeistelNetwork:
    """An ``n_stages``-stage Feistel permutation of ``[0, 2**n_bits)``.

    Parameters
    ----------
    n_bits:
        Address width ``B``; the permuted domain is ``[0, 2**B)``.
    keys:
        One key per stage.  Keys are half-width values (``B//2`` bits for
        even ``B``; ``(B+1)//2`` bits internally for odd ``B`` due to
        cycle-walking) — wider values are masked down.

    Use :meth:`random` to draw a fresh key schedule, and :meth:`rekeyed`
    to derive a same-shape network with new keys (what the dynamic Feistel
    network does every remapping round).
    """

    def __init__(self, n_bits: int, keys: Sequence[int]):
        if n_bits < 1:
            raise ValueError(f"n_bits must be >= 1, got {n_bits}")
        if len(keys) < 1:
            raise ValueError("at least one stage key is required")
        self.n_bits = n_bits
        self.domain = 1 << n_bits
        # Cycle-walking width: smallest even width >= n_bits.
        self._half_bits = (n_bits + 1) // 2
        self._walk_bits = 2 * self._half_bits
        self._half_mask = mask(self._half_bits)
        self.keys = tuple(int(k) & self._half_mask for k in keys)
        #: The key schedule as an ``(S, 1)`` uint64 column: the key operand
        #: of :meth:`encrypt_keyed` that applies it to every address.
        self.key_column = np.array(self.keys, dtype=_U64).reshape(-1, 1)
        # scalar_ops()'s closures over the round tables, built on demand.
        self._ops: Optional[Tuple[ScalarOp, ScalarOp]] = None

    def __getstate__(self) -> Dict[str, Any]:
        # The round tables are a cache: a network pickles the same whether
        # or not it has built them.
        state = self.__dict__.copy()
        state["_ops"] = None
        return state

    # ------------------------------------------------------------- factory

    @staticmethod
    def draw_keys(
        n_bits: int, n_stages: int, count: int, rng: SeedLike = None
    ) -> np.ndarray:
        """Draw ``count`` key schedules as one ``(count, n_stages)`` array.

        Row ``i`` holds the keys the ``i``-th of ``count`` successive
        :meth:`random` calls on the same generator would draw, and the
        generator ends in the same state: ``Generator.integers`` takes
        every bounded key (keys are at most 32 bits wide) from the bit
        generator's 32-bit stream in order, whatever the requested shape.
        """
        gen = as_generator(rng)
        high = 1 << ((n_bits + 1) // 2)
        return gen.integers(0, high, size=(count, n_stages))

    @classmethod
    def random(
        cls, n_bits: int, n_stages: int, rng: SeedLike = None
    ) -> "FeistelNetwork":
        """Draw a network with ``n_stages`` uniformly random stage keys."""
        return cls(n_bits, cls.draw_keys(n_bits, n_stages, 1, rng)[0])

    def rekeyed(self, rng: SeedLike = None) -> "FeistelNetwork":
        """Return a new network of identical shape with fresh random keys."""
        return FeistelNetwork.random(self.n_bits, self.n_stages, rng)

    @property
    def n_stages(self) -> int:
        """Number of Feistel stages (the paper's security knob ``S``)."""
        return len(self.keys)

    # -------------------------------------------------------- scalar paths

    def _encrypt_once(self, x: int) -> int:
        left = x >> self._half_bits
        right = x & self._half_mask
        for key in self.keys:
            left, right = right ^ _cube_mod(left ^ key, self._half_mask), left
        return (left << self._half_bits) | right

    def _decrypt_once(self, y: int) -> int:
        left = y >> self._half_bits
        right = y & self._half_mask
        for key in reversed(self.keys):
            left, right = right, left ^ _cube_mod(right ^ key, self._half_mask)
        return (left << self._half_bits) | right

    def _encrypt_scalar(self, x: int) -> int:
        if not 0 <= x < self.domain:
            raise ValueError(f"address {x} outside domain [0, {self.domain})")
        y = self._encrypt_once(x)
        while y >= self.domain:  # cycle-walk back into the domain
            y = self._encrypt_once(y)
        return y

    def _decrypt_scalar(self, y: int) -> int:
        if not 0 <= y < self.domain:
            raise ValueError(f"address {y} outside domain [0, {self.domain})")
        x = self._decrypt_once(y)
        while x >= self.domain:
            x = self._decrypt_once(x)
        return x

    def scalar_ops(self) -> Tuple[ScalarOp, ScalarOp]:
        """Table-driven scalar ``(encrypt, decrypt)`` closures.

        Each stage's cube comes from its round table, built for all stages
        in one pass on the first call and cached (not pickled).  The
        closures cycle-walk odd widths like :meth:`encrypt` and
        :meth:`decrypt` and agree with them on every address, but check no
        range: the caller passes ``0 <= x < 2**n_bits``.
        """
        if self._ops is None:
            cube = np.arange(1 << self._half_bits, dtype=_U64) ^ self.key_column
            cube = cube * cube * cube & _U64(self._half_mask)
            forward = tuple(cube.tolist())
            backward = forward[::-1]
            half, low, domain = self._half_bits, self._half_mask, self.domain

            def encrypt(x: int) -> int:
                while True:
                    left, right = x >> half, x & low
                    for f in forward:
                        left, right = right ^ f[left], left
                    x = (left << half) | right
                    if x < domain:  # cycle-walk back into the domain
                        return x

            def decrypt(y: int) -> int:
                while True:
                    left, right = y >> half, y & low
                    for f in backward:
                        left, right = right, left ^ f[right]
                    y = (left << half) | right
                    if y < domain:
                        return y

            self._ops = (encrypt, decrypt)
        return self._ops

    # -------------------------------------------------------- vector paths

    def _mix(
        self, keep: np.ndarray, feed: np.ndarray, key: np.ndarray
    ) -> np.ndarray:
        """``keep XOR (feed XOR key)^3 mod 2**h``: one stage, elementwise."""
        # uint64 products wrap mod 2**64, which 2**h divides, so one mask
        # after the full cube is exact.
        x = feed ^ key
        out = x * x
        out *= x
        out &= _U64(self._half_mask)
        out ^= keep
        return out

    def _encrypt_pass(self, v: np.ndarray, keys: np.ndarray) -> np.ndarray:
        half = _U64(self._half_bits)
        left = v >> half
        right = v & _U64(self._half_mask)
        for key in keys:
            left, right = self._mix(right, left, key), left
        return (left << half) | right

    def _decrypt_pass(self, v: np.ndarray, keys: np.ndarray) -> np.ndarray:
        half = _U64(self._half_bits)
        left = v >> half
        right = v & _U64(self._half_mask)
        for key in keys[::-1]:
            left, right = right, self._mix(left, right, key)
        return (left << half) | right

    def _walk(
        self, values: np.ndarray, keys: np.ndarray, one_pass: _Pass
    ) -> np.ndarray:
        out = one_pass(np.asarray(values, dtype=_U64), keys)
        if self._walk_bits == self.n_bits:
            return out  # even width: every output is already in the domain
        domain = _U64(self.domain)
        outside = out >= domain
        while outside.any():
            own = keys if keys.shape[1] == 1 else keys[:, outside]
            out[outside] = one_pass(out[outside], own)
            outside = out >= domain
        return out

    # ----------------------------------------------------------- public API

    def encrypt_keyed(self, x: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Encrypt ``x[i]`` under the key schedule ``keys[:, i]``.

        ``keys`` is a uint64 array of shape ``(S, len(x))``, or ``(S, 1)``
        to apply one schedule (e.g. :attr:`key_column`) to every address;
        this network contributes only its width.  Addresses are not
        range-checked: the caller guarantees ``0 <= x < 2**n_bits``.
        """
        return self._walk(x, keys, self._encrypt_pass)

    def encrypt(self, x: IntOrArray) -> IntOrArray:
        """Permute address(es) forward: LA → IA in the paper's terms."""
        if isinstance(x, np.ndarray):
            if x.size and (x.min() < 0 or int(x.max()) >= self.domain):
                raise ValueError("addresses outside domain")
            return self._walk(x, self.key_column, self._encrypt_pass)
        return self._encrypt_scalar(int(x))

    def decrypt(self, y: IntOrArray) -> IntOrArray:
        """Invert the permutation: IA → LA."""
        if isinstance(y, np.ndarray):
            if y.size and (y.min() < 0 or int(y.max()) >= self.domain):
                raise ValueError("addresses outside domain")
            return self._walk(y, self.key_column, self._decrypt_pass)
        return self._decrypt_scalar(int(y))

    def permutation(self) -> np.ndarray:
        """Materialize the full permutation table (tests / small domains)."""
        return self.encrypt(np.arange(self.domain, dtype=_U64)).astype(np.int64)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"FeistelNetwork(n_bits={self.n_bits}, n_stages={self.n_stages}, "
            f"keys={self.keys})"
        )
