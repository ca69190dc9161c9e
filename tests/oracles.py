"""Test-only helpers: the generator-word replay oracle and small conveniences
that no library code needs."""

import numpy as np

from chardeg.groups import GroupTable, Subgroup, _batch_mul
from chardeg.kernels import mul_mod
from chardeg.linalg import identity_matrix
from chardeg.modules import GModule, _meataxe_step


def digit_loop(n: int, base: int, width: int) -> list[int]:
    """The base-`base` digits of n, least significant first, one division at a time."""
    out = []
    for _ in range(width):
        out.append(n % base)
        n //= base
    return out


def word(group: GroupTable, i: int) -> tuple[int, ...]:
    """Generator word (indices into gens) whose product is element i, read off the BFS parents."""
    out = []
    while i != 0:
        out.append(int(group.parent_gen[i]))
        i = int(group.parent[i])
    return tuple(reversed(out))


def replay_image(m: GModule, i: int) -> np.ndarray:
    """Image of element i, one generator image at a time along its word."""
    out = identity_matrix(m.dim)
    for gi in word(m.group, i):
        out = mul_mod(out, m.gen_images[gi], m.field.p)
    return out


def replay_kernel(m: GModule) -> tuple[int, ...]:
    """Positions of the elements whose replayed image is the identity."""
    ident = identity_matrix(m.dim)
    return tuple(i for i in range(m.group.order) if np.array_equal(replay_image(m, i), ident))


def trivial_subgroup(group: GroupTable) -> Subgroup:
    return Subgroup(group, (0,))


def whole_group(group: GroupTable) -> Subgroup:
    return Subgroup(group, tuple(range(group.order)))


def validate_homomorphism(m: GModule, samples: int = 100, seed: int = 42) -> bool:
    """Spot-check image(xy) == image(x)image(y) on random element pairs, in one batch
    over the element image table (dim <= 64)."""
    g = m.group
    x, y = np.random.default_rng(seed).integers(g.order, size=(2, samples))
    xy = g.indices_of_matrices(_batch_mul(g.field, g.elems[x], g.elems[y]))
    imgs = m.element_images
    return bool((imgs[xy] == mul_mod(imgs[x], imgs[y], m.field.p)).all())


def is_irreducible(m: GModule, seed: int = 42) -> bool:
    """Norton-certified irreducibility; may raise InconclusiveError."""
    return m.dim == 1 or _meataxe_step(m, np.random.default_rng(seed))[0] == "irr"
