"""Work units: the one vocabulary the thread, process and cluster back ends run.

A scatter back end (:class:`~repro.query.parallel.ParallelExecutor` and its
process and cluster subclasses) splits a group's seed scans, bind-join
batches and property-path BFS rounds into **work units** — an op name plus
its arguments, each answerable from one store snapshot.  Shard-scoped ops
name their shard by index as the last argument (``None``: the whole store):

==================  ===========================================  ==================================
op                  args                                         reply
==================  ===========================================  ==================================
``eval_many``       ``(pattern, batch, wanted)``                 ``_Step.run``'s batches, in order
``pairs``           ``(property_id, shard)``                     ``(object pairs, datatype pairs)``
``subjects_obj``    ``(property_id, object term, shard)``        subject ids
``subjects_lit``    ``(property_id, literal, shard)``            subject ids
``type_interval``   ``(low, high, shard)``                       subject ids
``type_concept``    ``(concept_id, shard)``                      subject ids
``expand``          ``(forward, inverse, ids, literals, shard)`` ``(ids, literals)``, one BFS step
==================  ===========================================  ==================================

An ``eval_many`` unit is one upstream :class:`~repro.sparql.bindings.Batch`
run through :meth:`TriplePatternEvaluator.evaluate_many
<repro.query.tp_eval.TriplePatternEvaluator.evaluate_many>` against the
whole store (the sharded views route each probe); its reply stops after
``wanted`` extension rows (``None``: all of them).

:func:`execute_unit` is the only implementation of these ops.  The thread
back end calls it in-process on Python values, the ``Batch`` as it is; a
worker process (:mod:`repro.query.multiproc`) and a replica
(:mod:`repro.serve.cluster`) call it between the two halves of the **wire
codec** below.

Wire codec: requests carry terms **by value**, so a worker or replica standing
at an older position than the coordinator can never be handed an identifier
it has not assigned yet.  Replies carry **dictionary ids** with literals by
value: a store replaying the same log assigns the same ids, and the
coordinator's dictionary only grows, so every id a reply names is one the
coordinator can extract.  An ``eval_many`` request is ``(pattern slots,
names, rows, wanted)``; its reply is ``(added names, batches)``, each row
the index of its upstream row followed by the added columns, so the
coordinator extends its own rows and keeps their ids.  Codes are tuples of
plain values, so they pickle for worker processes and survive JSON (as
lists) for replicas; :func:`decode_reply` returns exactly what
:func:`execute_unit` returns inline.
"""

from __future__ import annotations

from repro.query.paths import expand_frontier_local
from repro.query.tp_eval import TriplePatternEvaluator
from repro.rdf.terms import BlankNode, Literal, URI
from repro.sparql.ast import TriplePattern, Variable
from repro.sparql.bindings import Batch, Layout

#: Every op :func:`execute_unit` answers.
UNIT_OPS = (
    "eval_many",
    "pairs",
    "subjects_obj",
    "subjects_lit",
    "type_interval",
    "type_concept",
    "expand",
)

#: The column a decoded ``eval_many`` request appends to its rows: each row's
#: index in the request, which the reply names instead of the row.  No SPARQL
#: variable can be called so.
_ROW = "#row"


def execute_unit(store, op: str, args, reasoning: bool):
    """Run one work unit against ``store`` and return its (Python) reply."""
    if op == "eval_many":
        pattern, batch, wanted = args
        evaluator = TriplePatternEvaluator(store, reasoning=reasoning)
        reply, count = [], 0
        for found in evaluator.evaluate_many(pattern, [batch], wanted):
            reply.append(found)
            count += len(found)
            if wanted is not None and count >= wanted:
                break
        return reply
    shard = store if args[-1] is None else store.shards[args[-1]]
    if op == "pairs":
        return (
            list(shard.object_store.pairs_for_property(args[0])),
            list(shard.datatype_store.pairs_for_property(args[0])),
        )
    if op == "subjects_obj":
        object_id = store.instances.try_locate(args[1])
        if object_id is None:
            return []  # the term entered the dictionary after this snapshot
        return list(shard.object_store.subjects_for(args[0], object_id))
    if op == "subjects_lit":
        return list(shard.datatype_store.subjects_for(args[0], args[1]))
    if op == "type_interval":
        return list(shard.type_store.subjects_of_interval(args[0], args[1]))
    if op == "type_concept":
        return list(shard.type_store.subjects_of(args[0]))
    if op == "expand":
        return expand_frontier_local(shard, *args[:4])
    raise ValueError(f"unknown work unit {op!r}")


# --------------------------------------------------------------------------- #
# wire codec
# --------------------------------------------------------------------------- #


def encode_term(term) -> tuple:
    """One term, by value."""
    if isinstance(term, Literal):
        return ("l", term.lexical, term.datatype, term.language)
    if isinstance(term, URI):
        return ("u", term.value)
    return ("b", term.label)


def decode_term(code):
    """Inverse of :func:`encode_term`."""
    kind = code[0]
    if kind == "l":
        return Literal(code[1], datatype=code[2], language=code[3])
    if kind == "u":
        return URI(code[1])
    return BlankNode(code[1])


def _encode_value(value):
    """A reply column: an instance id as it is, a term by value."""
    return value if value.__class__ is int else encode_term(value)


def _decode_value(code):
    """Inverse of :func:`_encode_value`."""
    return code if code.__class__ is int else decode_term(code)


def _located(code, instances):
    """A request column on the receiving store: its instance id when
    ``instances`` holds the term (so run buckets apply), else the term."""
    term = decode_term(code)
    if isinstance(term, Literal):
        return term
    found = instances.try_locate(term)
    return term if found is None else found


def _encode_slot(slot) -> tuple:
    return ("v", slot.name) if isinstance(slot, Variable) else encode_term(slot)


def _decode_slot(code):
    return Variable(code[1]) if code[0] == "v" else decode_term(code)


def encode_request(op: str, args):
    """A unit's arguments for the wire: terms by value, everything else as is."""
    if op == "eval_many":
        pattern, batch, wanted = args
        decode = batch.layout.decode
        return (
            tuple(_encode_slot(slot) for slot in (pattern.subject, pattern.predicate, pattern.object)),
            batch.layout.names,
            tuple(tuple(encode_term(decode(value)) for value in row) for row in batch.rows),
            wanted,
        )
    if op in ("subjects_obj", "subjects_lit"):
        return (args[0], encode_term(args[1]), args[2])
    if op == "expand":
        return tuple(args[:3]) + (tuple(encode_term(term) for term in args[3]), args[4])
    return args


def decode_request(op: str, args, instances):
    """Inverse of :func:`encode_request`, for the store ``instances`` belongs to.

    An ``eval_many`` batch gets ids of ``instances`` for the terms it holds,
    and the :data:`_ROW` column.
    """
    if op == "eval_many":
        slot_codes, names, row_codes, wanted = args
        pattern = TriplePattern(*(_decode_slot(code) for code in slot_codes))
        rows = [
            tuple([_located(code, instances) for code in row]) + (index,)
            for index, row in enumerate(row_codes)
        ]
        return (pattern, Batch(Layout(tuple(names) + (_ROW,), instances), rows), wanted)
    if op in ("subjects_obj", "subjects_lit"):
        return (args[0], decode_term(args[1]), args[2])
    if op == "expand":
        return tuple(args[:3]) + ([decode_term(code) for code in args[3]], args[4])
    return args


def encode_reply(op: str, reply):
    """A unit's reply for the wire: ids as they are, other terms by value.

    An ``eval_many`` reply names each row by its :data:`_ROW` index and
    carries only the columns the step added (one layout for all batches).
    """
    if op == "eval_many":
        if not reply:
            return ((), [])
        layout = reply[0].layout
        start = layout.columns[_ROW]
        cuts = [
            [(row[start],) + tuple(map(_encode_value, row[start + 1:])) for row in found.rows]
            for found in reply
        ]
        return (layout.names[start + 1:], cuts)
    if op == "pairs":
        object_pairs, datatype_pairs = reply
        return (object_pairs, [(subject, encode_term(literal)) for subject, literal in datatype_pairs])
    if op == "expand":
        ids, literals = reply
        return (ids, [encode_term(literal) for literal in literals])
    return reply


def decode_reply(op: str, args, payload, instances):
    """Inverse of :func:`encode_reply` for the request ``args``: the reply
    :func:`execute_unit` gives inline.

    ``eval_many`` rows extend the request's own upstream rows, under its
    layout with ids of ``instances`` (the coordinator's dictionary).
    """
    if op == "eval_many":
        names, cuts = payload
        upstream = args[1]
        layout = upstream.layout.owned(instances)
        for name in names:
            layout = layout.child(name)
        rows = upstream.rows
        return [
            Batch(layout, [rows[row[0]] + tuple(map(_decode_value, row[1:])) for row in cut])
            for cut in cuts
        ]
    if op == "pairs":
        object_pairs, datatype_pairs = payload
        return (
            [tuple(pair) for pair in object_pairs],  # JSON delivers lists
            [(subject, decode_term(code)) for subject, code in datatype_pairs],
        )
    if op == "expand":
        ids, codes = payload
        return (ids, [decode_term(code) for code in codes])
    return payload
