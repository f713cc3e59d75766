"""Seeded random instances shared by the test suite and the CLI oracle modes.

All generators take an explicit random.Random so corpora are reproducible
from a seed.  Edge and clause lists are built in insertion order (never
from set iteration) to keep output independent of hash randomization.
"""
from __future__ import annotations

import random

from .hypergraph import DirectedHypergraph
from .machine import Machine


def random_digraph(rng, max_vertices=6, edge_prob=0.3):
    n = rng.randint(1, max_vertices)
    vertices = [str(i) for i in range(1, n + 1)]
    edges = []
    for u in vertices:
        for v in vertices:
            if u != v and rng.random() < edge_prob:
                edges.append((u, v))
    return DirectedHypergraph(2, vertices, edges)


def random_hypergraph(rng, k=2, max_vertices=5, max_edges=6):
    n = rng.randint(k, max(k, max_vertices))
    vertices = [str(i) for i in range(1, n + 1)]
    edges = []
    seen = set()
    for _ in range(rng.randint(0, max_edges) * 3):
        edge = tuple(rng.sample(vertices, k))
        if edge not in seen:
            seen.add(edge)
            edges.append(edge)
        if len(edges) >= max_edges:
            break
    return DirectedHypergraph(k, vertices, edges)


def random_machine(rng, k=2, max_states=3, density=0.25, max_targets=2):
    """Machine with random sparse transitions and a random off-diagonal bad set."""
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(1, n + 1)]
    transitions = _random_transitions(rng, states, k, density, max_targets)
    bad = []
    for s in states:
        for t in states:
            if s != t and rng.random() < 0.3:
                bad.append((s, t))
    return Machine(k, states, transitions, bad)


def random_cycling_machine(rng, k=2, max_states=3, density=0.4, max_targets=2):
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(1, n + 1)]
    transitions = _random_transitions(rng, states, k, density, max_targets)
    return Machine(k, states, transitions, [(s, s) for s in states])


def _random_transitions(rng, states, k, density, max_targets):
    rows = []
    for s in states:
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                if rng.random() < density:
                    size = rng.randint(1, min(max_targets, len(states)))
                    rows.append((s, i, j, rng.sample(states, size)))
    return rows


def random_cnf(rng, max_vars=6, max_clauses=8, min_vars=3):
    """Random 3-CNF as (variables, clauses) with string literals like "~x2".

    Small variable counts with many clauses keep a healthy share of
    unsatisfiable instances in the corpus.
    """
    v = rng.randint(min_vars, max_vars)
    variables = [f"x{i}" for i in range(1, v + 1)]
    n_clauses = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(n_clauses):
        picked = rng.sample(variables, 3)
        clause = tuple(
            name if rng.random() < 0.5 else "~" + name for name in picked
        )
        clauses.append(clause)
    return variables, clauses


def default_rng(seed):
    return random.Random(seed)


def goodness_corpus(seed, trials):
    """The goodness cross-check instances of ``badcycle oracle corpus``.

    Trial n draws a hypergraph on at most 4 vertices, 3-uniform when n is
    a multiple of 3 and 2-uniform otherwise, then a cycling machine when
    n is odd and a general one when it is even.
    """
    rng = default_rng(seed)
    for trial in range(trials):
        k = 2 if trial % 3 else 3
        graph = random_hypergraph(rng, k=k, max_vertices=4, max_edges=4)
        if trial % 2:
            machine = random_cycling_machine(rng, k=k, max_states=3)
        else:
            machine = random_machine(rng, k=k, max_states=3)
        yield graph, machine
