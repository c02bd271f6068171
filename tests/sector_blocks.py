"""The N diagonal blocks of F^dag a F for the momentum basis F of a
`MomentumSectors`, from its two-sided rotation through identity blocks
(W = F): a path only tests read."""
import numpy as np


def sector_blocks(sectors, a) -> list[np.ndarray]:
    """The diagonal blocks of F^dag a F, in momentum order."""
    a = np.asarray(a)
    if a.shape != (sectors.dim, sectors.dim):
        raise ValueError(f"dimension mismatch: matrix {a.shape}, sectors {sectors.dim}")
    x = sectors.rotate_to_sectors(a, [np.eye(d) for d in sectors.dims])
    edges = np.cumsum((0, *sectors.dims))
    return [x[i:j, i:j] for i, j in zip(edges[:-1], edges[1:])]
