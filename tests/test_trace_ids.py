"""Span and trace ids: their format, uniqueness, and independence.

Ids come from a generator private to :mod:`repro.obs.trace` instead of
one ``os.urandom`` call per span: a served request opens dozens of
spans, and each of those syscalls let another request thread take the
GIL. These tests hold what the ids must still be: lowercase hex of 16
(span) and 32 (trace) characters, unique across threads minting at
once, different in a forked child than in its parent, and untouched by
``random.seed()``.
"""

from __future__ import annotations

import os
import random
import re
import sys
import threading

import pytest

from repro.obs import trace as obs_trace

SPAN_ID = re.compile(r"[0-9a-f]{16}")
TRACE_ID = re.compile(r"[0-9a-f]{32}")


def test_ids_are_lowercase_hex_of_16_and_32_characters():
    with obs_trace.trace("root") as root:
        with obs_trace.span("child") as child:
            pass
    for span in (root, child):
        assert SPAN_ID.fullmatch(span.span_id), span.span_id
        assert TRACE_ID.fullmatch(span.trace_id), span.trace_id
    assert child.parent_id == root.span_id
    # Leading zero bits keep their characters.
    assert all(
        SPAN_ID.fullmatch(obs_trace._new_id()) for _ in range(2000)
    )


def test_ids_are_unique_across_threads():
    threads, spans = 8, 10_000
    minted: "list[list[str]]" = [[] for _ in range(threads)]
    start = threading.Barrier(threads)

    def mint(index: int) -> None:
        out = minted[index]
        start.wait()
        for _ in range(spans):
            out.append(obs_trace.Span("0" * 32, "span").span_id)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=mint, args=(index,))
                   for index in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    ids = [span_id for out in minted for span_id in out]
    assert len(ids) == threads * spans
    assert len(set(ids)) == len(ids)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_mints_other_ids_than_its_parent():
    obs_trace._new_id()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report its next ids and leave at once
        try:
            os.write(write, " ".join(
                [obs_trace._new_id(), obs_trace._new_id(16)]
            ).encode("ascii"))
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        child = pipe.read().decode("ascii").split()
    os.waitpid(pid, 0)
    parent = [obs_trace._new_id(), obs_trace._new_id(16)]
    assert len(child) == 2
    assert child[0] != parent[0] and child[1] != parent[1]


def test_seeding_random_does_not_repeat_ids():
    state = random.getstate()
    try:
        random.seed(0)
        first = [obs_trace._new_id() for _ in range(50)]
        random.seed(0)
        second = [obs_trace._new_id() for _ in range(50)]
    finally:
        random.setstate(state)
    assert not set(first) & set(second)
