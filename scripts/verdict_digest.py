#!/usr/bin/env python3
"""Print one SHA-256 digest of the PSD verdicts on the decompose pool.

Run from the repository root:

    python3 scripts/verdict_digest.py

The verdict kernels' counterpart of ``necessity_digest.py`` and
``witness_digest.py``.  Builds the pool of the decompose benchmark as
``perfbench/workloads.py`` does, at its default seed 0: per batch, five
passing pairs (d = 2..6), five failing pairs (a2 = T a1, T far from
normal) and the four ``random_partition`` kinds.  For each pair's Gram
block it hashes the two ``_two_sided`` sides, ``state_from_block(...)``'s
kept lowest eigenvalue and its ``_ppt_check``; for each partition, the
``_psd_check`` of the assembled matrix.  A verdict enters as its verdict
and the ``.hex()`` of its lowest eigenvalue and threshold.  To these it
adds the bytes of ``eig_hermitian`` and ``sqrt_psd`` of every assembled
matrix, of ``gram_vectors`` of each Gram block and of the certificate of
``psd_via_contraction`` on each partition, which read the eigenvectors of
the kernels' ``eigh`` mode, and a marker for each DomainError.

A verdict is read by its first three entries, (verdict, lowest,
threshold), not by field name: those are the first three fields of the
verdict record and the whole of the tuple that the kernels returned before
it, so the same script runs on a tree of either kind, and two trees that
give the same digest give the same verdicts bit for bit.  Prints the
digest and the number of verdicts; exits 0.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from stormer_kit import DEFAULT_TOL, DomainError
from stormer_kit.blocks import Partition2, assemble, psd_via_contraction
from stormer_kit.linalg import _psd_check, eig_hermitian, sqrt_psd
from stormer_kit.sampling import ginibre, random_partition, random_stormer_pair
from stormer_kit.states import _ppt_check, state_from_block
from stormer_kit.stormer import OperatorPair, _two_sided, gram_block, gram_vectors

SEED = 0
BATCHES = 16


def pool(seed: int, batches: int) -> list:
    """The decompose benchmark's inputs: ("pair", a1, a2) and
    ("partition", a, b, c), in its draw order."""
    rng = np.random.default_rng([seed, 3])
    out = []
    sizes = [(n, k) for n in range(1, 6) for k in range(1, 6)]
    for batch in range(batches):
        for d in range(2, 7):
            pair = random_stormer_pair(rng, d)
            out.append(("pair", pair.a1, pair.a2))
        for d in range(2, 7):
            a1 = random_stormer_pair(rng, d).a1
            t = ginibre(rng, d) + np.triu(np.ones((d, d)), 1)
            out.append(("pair", a1, t @ a1))
        for slot, kind in enumerate(("psd", "inflated", "indefinite", "singular")):
            n, k = sizes[(4 * batch + slot) % len(sizes)]
            out.append(("partition", *random_partition(rng, n, k, kind)))
    return out


def digest(seed: int, batches: int) -> tuple[str, int]:
    """(hex digest, number of verdicts) of the pool at ``seed``."""
    h = hashlib.sha256()
    count = 0

    def verdict(r) -> None:
        nonlocal count
        h.update(f"{bool(r[0])} {float(r[1]).hex()} {float(r[2]).hex()}\n".encode())
        count += 1

    def arrays(fn, *args) -> None:
        try:
            out = fn(*args)
        except DomainError:
            h.update(b"DomainError\n")
            return
        for a in out if isinstance(out, tuple) else (out,):
            h.update(b"None" if a is None else np.ascontiguousarray(a).tobytes())

    for kind, *args in pool(seed, batches):
        if kind == "pair":
            x = gram_block(OperatorPair(*args))
            for side in _two_sided(x, DEFAULT_TOL):
                verdict(side)
            try:
                rho = state_from_block(x, DEFAULT_TOL)
            except DomainError:
                h.update(b"DomainError\n")
            else:
                h.update(f"{float(rho._lowest).hex()}\n".encode())
                verdict(_ppt_check(rho, DEFAULT_TOL))
            m = x.assembled()
            arrays(gram_vectors, x)
        else:
            p = Partition2(*args)
            m = assemble(p)
            verdict(_psd_check(m, DEFAULT_TOL))
            cert = psd_via_contraction(p)
            h.update(f"{cert.psd} {float(cert.residual).hex()}\n".encode())
            arrays(lambda: cert.w)  # None where the partition is not certified
        arrays(eig_hermitian, m)
        arrays(sqrt_psd, m)
    return h.hexdigest(), count


def main() -> int:
    hexdigest, count = digest(SEED, BATCHES)
    print(f"{hexdigest}  {count} verdicts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
