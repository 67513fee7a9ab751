"""Verifier throughput — batched certification engine vs the scalar oracle.

The quantitative-certificate pipeline dominates Canopy's runtime: the paper
evaluates with N=50 components per property at every coarse-grained decision.
The batched engine propagates all N components as one ``(N, d)`` box through
the actor (one IBP pass per property) instead of looping components in
Python.  This benchmark measures both paths on identical decision contexts,
records certificates/sec and wall-clock in the bench JSON (``extra_info``),
and asserts the batched engine clears a >= 5x speedup at evaluation scale.

It also times a stacked pass at the shape of the repo benchmark's
``certified_grid`` run: every property of ``all_properties()`` (P1–P5, with
both P4 cases), each certified over ``D = 50`` decisions at once.  The
verifier streams such a stack through the IBP kernel in blocks of
``max(1, BLOCK_ROWS // N)`` decisions (10 at N=50), one kernel call per
block, a P1–P4 block reading its property's first-layer deviation product
computed once per ``certify``.  Its certificates/sec and milliseconds per
``certify`` call go into ``extra_info`` as ``stacked_*``.  ``ibp_block_us``
is the kernel alone: the median of ``IBP_BLOCK_LOOPS`` timed loops of one
warm ``(10, 50, d)`` block through the same actor with reused
:class:`~repro.abstract.propagate.IBPBuffers`, in microseconds per call.

The scalar path is the one-component-at-a-time oracle in ``tests/oracle``
(``conftest.py`` puts ``tests/`` on the import path).  The differential
suite (``tests/test_verifier_differential.py``) proves the two paths produce
numerically identical certificates, so the speedup is free.
"""

import time
from functools import partial

import numpy as np

from benchconfig import SEED
from oracle import certify_reference

from repro.abstract.box import Box
from repro.abstract.propagate import IBPBuffers, propagate_mlp_batched
from repro.core.properties import all_properties
from repro.core.verifier import BLOCK_ROWS, Verifier, VerifierConfig
from repro.nn import make_actor
from repro.orca.observations import ObservationConfig

#: Evaluation-scale component count (the paper's N during evaluation).
N_COMPONENTS = 50

#: Decision contexts certified per timed pass.
N_DECISIONS = 8

#: Decisions per stacked ``certify`` call (a ``certified_grid`` run's stack).
N_STACKED_DECISIONS = 50

#: Timed repetitions of the stacked pass (the fastest one is reported).
STACKED_ROUNDS = 5

#: Timed loops of the one-block kernel pass (their median is reported), and
#: kernel calls per loop.
IBP_BLOCK_LOOPS = 5
IBP_BLOCK_CALLS = 200

MIN_SPEEDUP = 5.0


def make_workload():
    rng = np.random.default_rng(SEED)
    obs_config = ObservationConfig()
    # Orca-sized actor: 2 hidden ReLU layers, tanh head.
    actor = make_actor(obs_config.state_dim, hidden_sizes=(64, 32), rng=rng)
    verifier = Verifier(actor, obs_config, VerifierConfig(n_components=N_COMPONENTS))
    properties = list(all_properties())
    contexts = [
        (rng.uniform(0.0, 1.0, obs_config.state_dim),
         float(rng.uniform(10.0, 100.0)),
         float(rng.uniform(10.0, 100.0)))
        for _ in range(N_DECISIONS)
    ]
    return verifier, properties, contexts


def make_stack(obs_config):
    rng = np.random.default_rng(SEED + 1)
    return (rng.uniform(0.0, 1.0, (N_STACKED_DECISIONS, obs_config.state_dim)),
            rng.uniform(10.0, 100.0, N_STACKED_DECISIONS),
            rng.uniform(10.0, 100.0, N_STACKED_DECISIONS))


def stacked_pass(verifier, properties, states, cwnd_tcp, cwnd_prev):
    """One ``certify`` call per property over the whole decision stack."""
    for prop in properties:
        verifier.certify(prop, states, cwnd_tcp, cwnd_prev)
    return len(properties) * len(states)


def ibp_block_us(actor, state_dim):
    """Median microseconds of one warm ``(b, N, d)`` verifier-sized block
    through the IBP kernel, ``b = BLOCK_ROWS // N``."""
    rng = np.random.default_rng(SEED + 2)
    shape = (max(1, BLOCK_ROWS // N_COMPONENTS), N_COMPONENTS, state_dim)
    box = Box._trusted(rng.uniform(0.0, 1.0, shape), rng.uniform(0.0, 0.05, shape))
    buffers = IBPBuffers()
    propagate_mlp_batched(actor, box, buffers)
    loops = []
    for _ in range(IBP_BLOCK_LOOPS):
        start = time.perf_counter()
        for _ in range(IBP_BLOCK_CALLS):
            propagate_mlp_batched(actor, box, buffers)
        loops.append((time.perf_counter() - start) / IBP_BLOCK_CALLS)
    return 1e6 * float(np.median(loops))


def certify_pass(verifier, properties, contexts, certify):
    certificates = 0
    for state, cwnd_tcp, cwnd_prev in contexts:
        for prop in properties:
            certify(prop, state, cwnd_tcp, cwnd_prev)
            certificates += 1
    return certificates


def test_batched_verifier_is_5x_faster_than_scalar_reference(benchmark):
    verifier, properties, contexts = make_workload()
    scalar_certify = partial(certify_reference, verifier)

    # Warm up both paths (first-touch allocations, BLAS thread spin-up).
    certify_pass(verifier, properties, contexts[:1], verifier.certify)
    certify_pass(verifier, properties, contexts[:1], scalar_certify)

    start = time.perf_counter()
    n_certificates = certify_pass(verifier, properties, contexts, scalar_certify)
    scalar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    benchmark.pedantic(certify_pass, args=(verifier, properties, contexts, verifier.certify),
                       rounds=1, iterations=1)
    batched_seconds = time.perf_counter() - start

    stack = make_stack(ObservationConfig())
    stacked_pass(verifier, properties, *stack)
    stacked_seconds = float("inf")
    for _ in range(STACKED_ROUNDS):
        start = time.perf_counter()
        n_stacked = stacked_pass(verifier, properties, *stack)
        stacked_seconds = min(stacked_seconds, time.perf_counter() - start)

    block_us = ibp_block_us(verifier.actor, verifier.observer.state_dim)

    speedup = scalar_seconds / batched_seconds
    batched_certs_per_sec = n_certificates / batched_seconds
    scalar_certs_per_sec = n_certificates / scalar_seconds
    benchmark.extra_info.update({
        "n_components": N_COMPONENTS,
        "n_certificates": n_certificates,
        "scalar_wall_clock_s": scalar_seconds,
        "batched_wall_clock_s": batched_seconds,
        "scalar_certificates_per_sec": scalar_certs_per_sec,
        "batched_certificates_per_sec": batched_certs_per_sec,
        "speedup": speedup,
        "stacked_n_decisions": N_STACKED_DECISIONS,
        "stacked_n_certificates": n_stacked,
        "stacked_certificates_per_sec": n_stacked / stacked_seconds,
        "stacked_ms_per_call": 1e3 * stacked_seconds / len(properties),
        "ibp_block_us": block_us,
    })
    print(f"\nverifier throughput at N={N_COMPONENTS}: "
          f"batched {batched_certs_per_sec:.0f} certs/s "
          f"vs scalar {scalar_certs_per_sec:.0f} certs/s  ({speedup:.1f}x); "
          f"stacked D={N_STACKED_DECISIONS}: {n_stacked / stacked_seconds:.0f} certs/s, "
          f"{1e3 * stacked_seconds / len(properties):.2f} ms per call; "
          f"one IBP block {block_us:.0f} us")

    assert speedup >= MIN_SPEEDUP, (
        f"batched verifier only {speedup:.2f}x faster than the scalar reference "
        f"(required {MIN_SPEEDUP}x at N={N_COMPONENTS})"
    )
