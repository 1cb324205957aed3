"""Instance generators: seeded random families and adversarial markets.

All generators are pure functions of their arguments; randomness flows
through a counter-based Philox generator keyed by the caller's seed, so
results are reproducible across platforms and processes.
"""

from __future__ import annotations

import numpy as np

from .core import DimensionMismatch, Instance, validate_instance

__all__ = [
    "rng_from_seed",
    "gen_random",
    "gen_rsd_worst",
    "gen_ordinal_worst",
    "worked_example",
    "parse_generator_spec",
]


def rng_from_seed(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator; distinct streams are independent."""
    return np.random.Generator(np.random.Philox(key=(int(seed) & (2**64 - 1))
                                                + (int(stream) << 64)))


def gen_random(n: int, distribution: str = "uniform01",
               seed: int = 0, param: float | None = None) -> Instance:
    """A seeded random square instance.

    distributions:
      * ``uniform01`` — i.i.d. uniform values on [0, 1];
      * ``grid`` — values drawn from {0, 1/k, ..., 1} (``param`` = k, a
        finite whole number >= 1 such as 4 or 4.0, default 4);
      * ``sparse`` — each value is zero with probability ``param``
        (default 0.5), otherwise uniform on [0, 1].
    """
    if n < 1:
        raise DimensionMismatch("n must be >= 1")
    rng = rng_from_seed(seed)
    if distribution == "uniform01":
        values = rng.uniform(size=(n, n))
    elif distribution == "grid":
        k = 4.0 if param is None else float(param)
        if not (k.is_integer() and k >= 1):      # False for inf and nan
            raise DimensionMismatch(f"grid resolution must be a whole number >= 1, not {param}")
        values = rng.integers(0, int(k) + 1, size=(n, n)) / int(k)
    elif distribution == "sparse":
        p = float(param) if param is not None else 0.5
        if not 0.0 <= p <= 1.0:
            raise DimensionMismatch("sparsity must lie in [0, 1]")
        values = rng.uniform(size=(n, n))
        values[rng.uniform(size=(n, n)) < p] = 0.0
    else:
        raise DimensionMismatch(f"unknown distribution {distribution!r}")
    return validate_instance(values)


def gen_rsd_worst(n: int, eps: float = 1e-2) -> Instance:
    """Serial dictatorship's nemesis: everyone covets agent 1's only item.

    Agent 1 values item 1 at 1 and nothing else; agent i >= 2 values item 1
    at 1 and item i at 1 - eps.  Under random serial dictatorship agent 1
    wins item 1 only when drawn first, while the bargaining benchmark gives
    nearly everyone their own item.
    """
    if n < 1:
        raise DimensionMismatch("n must be >= 1")
    values = np.zeros((n, n))
    values[:, 0] = 1.0
    for i in range(1, n):
        values[i, i] = 1.0 - eps
    return validate_instance(values)


def gen_ordinal_worst(n: int, eps: float = 1e-2) -> Instance:
    """A market where rankings alone cannot distinguish the top agents.

    Agents 1..n-1 all rank item 1 first; agent 1's second choice (item 2,
    at value eps) is worth far less to her than agent i's second choice
    (item i+1, at value 1 - eps) is to agent i, but ordinally the agents
    are interchangeable.  Agent n values items 2..n equally at 1.
    """
    if n < 2:
        raise DimensionMismatch("n must be >= 2")
    values = np.zeros((n, n))
    values[0, 0] = 1.0
    values[0, 1] = eps
    for i in range(1, n - 1):
        values[i, 0] = 1.0
        values[i, i + 1] = 1.0 - eps
    values[n - 1, 1:] = 1.0
    return validate_instance(values)


def worked_example() -> Instance:
    """The three-agent market used throughout the docs and tests."""
    return validate_instance({
        "values": [[1, 2, 0], [0, 2, 1], [0, 0, 1]],
        "agent_labels": ["a", "b", "c"],
        "item_labels": ["A", "B", "C"],
    })


def parse_generator_spec(spec: str, seed: int = 0) -> Instance:
    """Build an instance from a ``name:arg1,arg2`` generator spec.

    Supported: ``random:n[,dist[,param]]`` (dist in uniform01|grid|sparse),
    ``rsd-worst:n[,eps]``, ``ordinal-worst:n[,eps]``, ``table1``.
    """
    name, _, argstr = spec.partition(":")
    args = [a for a in argstr.split(",") if a] if argstr else []
    try:
        if name == "random":
            n = int(args[0])
            dist = args[1] if len(args) > 1 else "uniform01"
            param = float(args[2]) if len(args) > 2 else None
            return gen_random(n, dist, seed=seed, param=param)
        if name == "rsd-worst":
            return gen_rsd_worst(int(args[0]),
                                 float(args[1]) if len(args) > 1 else 1e-2)
        if name == "ordinal-worst":
            return gen_ordinal_worst(int(args[0]),
                                     float(args[1]) if len(args) > 1 else 1e-2)
        if name == "table1":
            return worked_example()
    except (IndexError, ValueError) as exc:
        raise DimensionMismatch(f"bad generator spec {spec!r}: {exc}") from exc
    raise DimensionMismatch(f"unknown generator {name!r}")
