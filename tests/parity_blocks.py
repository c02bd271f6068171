"""The labelled blocks of a dim x dim matrix in the joint eigenbasis, split
by a `ReflectionParity` behind its off-label gate: a path only tests read."""
import numpy as np

from frameavg.operators import max_norm, project_pairs


def parity_split(parity, x) -> list[np.ndarray]:
    """The labelled blocks of a P_s- and flip-invariant matrix, by index
    gathers in O(dim^2), once `parity.gate` has checked that the blocks
    between labels vanish."""
    x = np.asarray(x)
    # parts[p][q] = (Q_p^dag x Q_q)^dag = Q_q^dag (Q_p^dag x)^dag
    parts = [
        [project_pairs(project_pairs(x, p).conj().T, q) for q in parity.vectors]
        for p in parity.vectors
    ]
    blocks = [parts[p][p].conj().T for p in range(len(parts))]
    offs = {
        (p, q): max_norm(part)
        for p, row in enumerate(parts)
        for q, part in enumerate(row)
        if p != q
    }
    off = max(offs.values(), default=0.0)
    # the entry scale in the labelled basis, which needs no pass over x
    parity.gate(offs, max(1.0, off, *(max_norm(b) for b in blocks)))
    return blocks
