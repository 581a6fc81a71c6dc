"""The shared bootstrap-verify-decrypt fixture.

The engine-counter benchmark (:mod:`repro.ckks.bench`), the fault campaign
(:mod:`repro.faults.campaign`), and the RAS campaign
(:mod:`repro.faults.ras_campaign`) all need the same end-to-end rig: a
keyed evaluator, a bootstrapper with its one-time caches warmed, and a
low-level ciphertext of a known message whose decryption error bounds
correctness after a bootstrap.  This module is the single copy of that
setup; the three consumers differ only in what they wrap around
``bts.bootstrap(ct_low)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.params import CkksParams

#: Parameter set for the functional benchmarks and campaigns —
#: identical to the bootstrap test fixture so the pinned counters track
#: what the tier-1 suite actually exercises.
BENCH_PARAMS = dict(degree=2 ** 7, level_count=15, aux_count=4,
                    prime_bits=28, base_prime_bits=31)


@dataclass
class BootstrapFixture:
    """Everything needed to bootstrap and verify one ciphertext."""

    params: CkksParams
    keygen: object
    keys: object
    ev: object
    bts: object
    #: The encrypted message (complex slots).
    message: np.ndarray
    #: The message at the lowest level, ready to bootstrap.
    ct_low: object

    def decrypt_error(self, refreshed) -> float:
        """Max slot error of a bootstrapped ciphertext vs the message."""
        decrypted = self.ev.decrypt_message(refreshed,
                                            self.params.slot_count)
        return float(np.abs(decrypted - self.message).max())


def bootstrap_fixture(key_seed: int = 11, message_seed: int = 7,
                      warmup: bool = True) -> BootstrapFixture:
    """Build the standard fixture.

    Key generation and the warmup bootstrap (rotation keys, diagonal
    caches) happen here, *outside* any fault or RAS session — the fault
    model targets the PIM datapath at execution time, not key material
    at rest.
    """
    from repro.ckks.bootstrap import Bootstrapper
    from repro.ckks.evaluator import CkksEvaluator
    from repro.ckks.keys import KeyGenerator

    params = CkksParams.create(**BENCH_PARAMS)
    keygen = KeyGenerator(params, seed=key_seed)
    keys = keygen.generate(sparse_secret=True)
    ev = CkksEvaluator(params, keys)
    bts = Bootstrapper(ev, keygen)

    rng = np.random.default_rng(message_seed)
    message = 0.3 * (rng.normal(size=params.slot_count)
                     + 1j * rng.normal(size=params.slot_count))
    ct_low = ev.drop_to_basis(ev.encrypt_message(message),
                              tuple(params.moduli[:1]))
    if warmup:
        bts.bootstrap(ct_low)
    return BootstrapFixture(params=params, keygen=keygen, keys=keys,
                            ev=ev, bts=bts, message=message,
                            ct_low=ct_low)
