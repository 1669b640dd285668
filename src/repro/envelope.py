"""The versioned result envelope: one JSON shape for every result.

Every result document the repo writes opens with the same two fields::

    {"schema": "repro.result/v1", "kind": "<document kind>", ...}

``kind`` names the document family: ``run`` and ``attack`` (the CLI's
``--json``, built by :func:`run_envelope` and :func:`attack_envelope`)
and ``fuzz-witness`` (corpus files).  :func:`make_envelope` is the one
serializer for all three.  The body is flat: kind-specific fields sit
next to ``schema``/``kind`` rather than under a nested wrapper, which
keeps corpus files human-diffable.

Readers open a file through :func:`load_json_object`, which rejects
anything but a readable JSON object with one ``ValueError`` naming the
file, then check ``schema`` (reject unknown majors), then ``kind``.
Its one caller is :func:`repro.fuzz.corpus.load_witness_file`, which
keeps the schema check for corpus files.
"""

from __future__ import annotations

import json

#: The one version string every result document opens with.  Bump the
#: ``/v1`` suffix (and keep a reader for the old one) on incompatible
#: layout changes.
RESULT_SCHEMA = "repro.result/v1"


def make_envelope(kind: str, **body) -> dict:
    """The one result serializer: stamp ``schema`` + ``kind`` over *body*.

    ``body`` fields land flat at the top level; ``schema`` and ``kind``
    are reserved and may not appear in it.
    """
    if not kind or not isinstance(kind, str):
        raise ValueError("envelope kind must be a non-empty string")
    for reserved in ("schema", "kind"):
        if reserved in body:
            raise ValueError(
                "envelope body may not carry the reserved field %r"
                % reserved
            )
    envelope = {"schema": RESULT_SCHEMA, "kind": kind}
    envelope.update(body)
    return envelope


def load_json_object(path, what: str) -> dict:
    """The JSON object in the file at *path*, a *what* (for messages).

    Raises ``ValueError`` naming the file when it cannot be read, is not
    JSON, or holds a JSON value other than an object — the one clean
    rejection every loader of a file on disk gives.
    """
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, RecursionError, ValueError) as error:
        raise ValueError("cannot read %s %s: %s" % (what, path, error)) \
            from None
    if not isinstance(payload, dict):
        raise ValueError("%s %s is not a JSON object" % (what, path))
    return payload


# ---------------------------------------------------------------------- #
# RunOutcome-family bodies.
# ---------------------------------------------------------------------- #


def outcome_body(outcome, **extra) -> dict:
    """Body fields for one :class:`RunOutcome` (kind ``run``/``window``)."""
    stats = outcome.stats
    body = {
        "label": outcome.label,
        "cycles": stats.cycles,
        "committed": stats.committed,
        "cpi": stats.cpi,
        "stats": stats.to_dict(),
    }
    body.update(extra)
    return body


def run_envelope(outcome, **extra) -> dict:
    """Envelope for one completed simulation run."""
    return make_envelope("run", **outcome_body(outcome, **extra))


def attack_envelope(attack_outcome, **extra) -> dict:
    """Envelope for one attack PoC outcome (timing or bit channel)."""
    body = {
        "attack": attack_outcome.attack,
        "channel": attack_outcome.channel,
        "config": attack_outcome.config_label,
        "secret": attack_outcome.secret,
        "recovered": attack_outcome.recovered,
        "leaked": attack_outcome.leaked,
        "margin": attack_outcome.margin,
    }
    if hasattr(attack_outcome, "bit_timings"):
        body["bit_timings"] = list(attack_outcome.bit_timings)
        body["threshold"] = attack_outcome.threshold
    else:
        body["guesses"] = list(attack_outcome.guesses)
        body["timings"] = list(attack_outcome.timings)
    run = getattr(attack_outcome, "outcome", None)
    if run is not None:
        body["run"] = outcome_body(run)
    body.update(extra)
    return make_envelope("attack", **body)
