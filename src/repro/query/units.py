"""Work units: the one vocabulary the thread, process and cluster back ends run.

A scatter back end (:class:`~repro.query.parallel.ParallelExecutor` and its
process and cluster subclasses) splits leaf scans, bind-join batches and
property-path BFS rounds into **work units** — an op name plus its
arguments, each answerable from one store snapshot.  Shard-scoped ops name
their shard by index as the last argument (``None``: the whole store):

==================  ===========================================  ==================================
op                  args                                         reply
==================  ===========================================  ==================================
``eval_many``       ``(pattern, bindings)``                      extended bindings, upstream order
``pairs``           ``(property_id, shard)``                     ``(object pairs, datatype pairs)``
``subjects_obj``    ``(property_id, object term, shard)``        subject ids
``subjects_lit``    ``(property_id, literal, shard)``            subject ids
``type_interval``   ``(low, high, shard)``                       subject ids
``type_concept``    ``(concept_id, shard)``                      subject ids
``expand``          ``(forward, inverse, ids, literals, shard)`` ``(ids, literals)``, one BFS step
==================  ===========================================  ==================================

:func:`execute_unit` is the only implementation of these ops.  The thread
back end calls it in-process on Python values; a worker process
(:mod:`repro.query.multiproc`) and a replica (:mod:`repro.serve.cluster`)
call it between the two halves of the **wire codec** below.

Wire codec: requests carry terms **by value**, so a worker or replica standing
at an older position than the coordinator can never be handed an identifier
it has not assigned yet.  Replies carry **dictionary ids** with literals by
value: a store replaying the same log assigns the same ids, and the
coordinator's dictionary only grows, so every id a reply names is one the
coordinator can extract.  Codes are tuples of plain values, so they pickle
for worker processes and survive JSON (as lists) for replicas;
:func:`decode_reply` returns exactly what :func:`execute_unit` returns inline.
"""

from __future__ import annotations

from repro.query.paths import expand_frontier_local
from repro.query.tp_eval import TriplePatternEvaluator
from repro.rdf.terms import BlankNode, Literal, URI
from repro.sparql.ast import TriplePattern, Variable
from repro.sparql.bindings import Binding

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


def execute_unit(store, op: str, args, reasoning: bool):
    """Run one work unit against ``store`` and return its (Python) reply."""
    if op == "eval_many":
        pattern, bindings = args
        evaluate = TriplePatternEvaluator(store, reasoning=reasoning).evaluate
        return [row for binding in bindings for row in evaluate(pattern, binding)]
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


def encode_term(term, instances=None) -> tuple:
    """One term: a dictionary id when ``instances`` holds it, else by value."""
    if isinstance(term, Literal):
        return ("l", term.lexical, term.datatype, term.language)
    if instances is not None:
        identifier = instances.try_locate(term)
        if identifier is not None:
            return ("i", identifier)
    if isinstance(term, URI):
        return ("u", term.value)
    return ("b", term.label)


def decode_term(code, instances=None):
    """Inverse of :func:`encode_term` (``instances`` resolves ``("i", id)``)."""
    kind = code[0]
    if kind == "i":
        return instances.extract(code[1])
    if kind == "l":
        return Literal(code[1], datatype=code[2], language=code[3])
    if kind == "u":
        return URI(code[1])
    return BlankNode(code[1])


def _encode_binding(binding: Binding, instances=None) -> tuple:
    return tuple((name, encode_term(value, instances)) for name, value in binding.items())


def _decode_binding(code, instances=None) -> Binding:
    return Binding._adopt({name: decode_term(value, instances) for name, value in code})


def _encode_slot(slot) -> tuple:
    return ("v", slot.name) if isinstance(slot, Variable) else encode_term(slot)


def _decode_slot(code):
    return Variable(code[1]) if code[0] == "v" else decode_term(code)


def encode_request(op: str, args):
    """A unit's arguments for the wire: terms by value, everything else as is."""
    if op == "eval_many":
        pattern, bindings = args
        slots = (pattern.subject, pattern.predicate, pattern.object)
        return (
            tuple(_encode_slot(slot) for slot in slots),
            tuple(_encode_binding(binding) for binding in bindings),
        )
    if op in ("subjects_obj", "subjects_lit"):
        return (args[0], encode_term(args[1]), args[2])
    if op == "expand":
        return tuple(args[:3]) + (tuple(encode_term(term) for term in args[3]), args[4])
    return args


def decode_request(op: str, args):
    """Inverse of :func:`encode_request`."""
    if op == "eval_many":
        pattern_code, binding_codes = args
        pattern = TriplePattern(*(_decode_slot(code) for code in pattern_code))
        return (pattern, [_decode_binding(code) for code in binding_codes])
    if op in ("subjects_obj", "subjects_lit"):
        return (args[0], decode_term(args[1]), args[2])
    if op == "expand":
        return tuple(args[:3]) + ([decode_term(code) for code in args[3]], args[4])
    return args


def encode_reply(op: str, reply, instances):
    """A unit's reply for the wire: ids where ``instances`` has them, literals by value."""
    if op == "eval_many":
        return [_encode_binding(row, instances) for row in reply]
    if op == "pairs":
        object_pairs, datatype_pairs = reply
        return (object_pairs, [(subject, encode_term(literal)) for subject, literal in datatype_pairs])
    if op == "expand":
        ids, literals = reply
        return (ids, [encode_term(literal) for literal in literals])
    return reply


def decode_reply(op: str, payload, instances):
    """Inverse of :func:`encode_reply`: the reply :func:`execute_unit` gave."""
    if op == "eval_many":
        return [_decode_binding(code, instances) for code in payload]
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
