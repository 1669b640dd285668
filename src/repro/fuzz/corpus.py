"""Witness corpus: JSON round-trip for minimized fuzz reproducers.

A corpus file is one self-contained differential test case: the full
program (instructions, data image, privileged ranges, MSRs, initial
registers), the oracle configuration it needs (secret ranges / tainted
bytes), and provenance metadata (template, channel, seed, taxonomy
analog).  ``tests/golden/fuzz_corpus/`` holds one file per covert
channel; the replay test re-runs each under the unprotected baseline
(must leak on the recorded channel) and under full NDA (must not leak).

New files are written as versioned result envelopes
(``"schema": "repro.result/v1"``, ``"kind": "fuzz-witness"`` — see
:mod:`repro.envelope`); the loader also accepts the pre-envelope layout
(``"schema": 1``) so the golden corpus keeps replaying unmodified.
A file that is not readable JSON, or misses or mistypes a field, is
rejected with one ``ValueError`` that names it.

Body (shared by both layouts)::

    {
      "schema": "repro.result/v1",
      "kind": "fuzz-witness",
      "meta": {"template": ..., "channel": ..., "seed": ...,
               "analog": ..., "config_name": ...},
      "oracle": {"secret_ranges": [[lo, hi], ...],
                 "tainted_bytes": [addr, ...]},
      "program": {
        "name": ...,
        "instrs": [{"op": "LOAD", "rd": 21, "rs1": 21, "imm": 0,
                    "target": null}, ...],
        "data": {"4259840": "002a..."},        # addr -> hex bytes
        "privileged": [[lo, hi], ...],
        "msrs": {"1": 99},
        "fault_handler": null,
        "initial_regs": {"2": 7}
      }
    }
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple

from repro.envelope import RESULT_SCHEMA, make_envelope
from repro.errors import AssemblyError
from repro.isa.instruction import Instr, Opcode
from repro.isa.program import Program
from repro.isa.registers import is_arch_reg

#: The pre-envelope corpus tag, still accepted on load.
LEGACY_SCHEMA = 1


def instr_to_dict(instr: Instr) -> dict:
    srcs = instr.srcs
    return {
        "op": instr.op.name,
        "rd": instr.rd,
        "rs1": srcs[0] if len(srcs) > 0 else None,
        "rs2": srcs[1] if len(srcs) > 1 else None,
        "imm": instr.imm,
        "target": instr.target,
    }


def _check(ok: bool, problem: str) -> None:
    if not ok:
        raise ValueError(problem)


def _object(value, what: str) -> dict:
    _check(isinstance(value, dict), "%s must be an object" % what)
    return value


def _int_pairs(value, what: str) -> Tuple[Tuple[int, int], ...]:
    _check(
        isinstance(value, list) and all(
            isinstance(pair, list) and len(pair) == 2
            and all(isinstance(bound, int) for bound in pair)
            for pair in value
        ),
        "%s must be a list of [lo, hi] integer pairs" % what,
    )
    return tuple(tuple(pair) for pair in value)


def _int_map(value, what: str) -> Dict[int, int]:
    """A JSON object with decimal-integer keys and integer values."""
    _check(
        isinstance(value, dict) and all(
            key.isdigit() and isinstance(item, int)
            for key, item in value.items()
        ),
        "%s must map decimal integers to integers" % what,
    )
    return {int(key): item for key, item in value.items()}


def instr_from_dict(payload: dict) -> Instr:
    """The instruction in *payload*; ``ValueError`` or
    :class:`~repro.errors.AssemblyError` if it is malformed."""
    _object(payload, "an instruction")
    op = payload.get("op")
    _check(isinstance(op, str) and op in Opcode.__members__,
           "unknown opcode %r" % (op,))
    imm = payload.get("imm", 0)
    _check(isinstance(imm, int), "imm %r is not an integer" % (imm,))
    return Instr(
        Opcode[op],
        rd=payload.get("rd"),
        rs1=payload.get("rs1"),
        rs2=payload.get("rs2"),
        imm=imm,
        target=payload.get("target"),
    )


def program_to_dict(program: Program) -> dict:
    return {
        "name": program.name,
        "instrs": [instr_to_dict(i) for i in program.instrs],
        "data": {
            str(addr): blob.hex() for addr, blob in sorted(
                program.data.items()
            )
        },
        "privileged": [list(r) for r in program.privileged],
        "msrs": {str(k): v for k, v in sorted(program.msrs.items())},
        "fault_handler": program.fault_handler,
        "initial_regs": {
            str(k): v for k, v in sorted(program.initial_regs.items())
        },
    }


def program_from_dict(payload: dict) -> Program:
    """The program in *payload*; ``ValueError`` or
    :class:`~repro.errors.AssemblyError` if it is malformed."""
    _object(payload, "program")
    instrs = payload.get("instrs")
    _check(isinstance(instrs, list), "program.instrs must be a list")
    data = _object(payload.get("data", {}), "program.data")
    _check(
        all(addr.isdigit() and isinstance(blob, str)
            for addr, blob in data.items()),
        "program.data must map byte addresses to hex strings",
    )
    fault_handler = payload.get("fault_handler")
    _check(fault_handler is None or isinstance(fault_handler, int),
           "program.fault_handler must be an integer or null")
    initial_regs = _int_map(payload.get("initial_regs", {}),
                            "program.initial_regs")
    _check(all(is_arch_reg(reg) for reg in initial_regs),
           "program.initial_regs names a register that does not exist")
    name = payload.get("name", "corpus")
    _check(isinstance(name, str), "program.name must be a string")
    return Program(
        [instr_from_dict(i) for i in instrs],
        data={int(addr): bytes.fromhex(blob) for addr, blob in data.items()},
        privileged=_int_pairs(payload.get("privileged", []),
                              "program.privileged"),
        msrs=_int_map(payload.get("msrs", {}), "program.msrs"),
        fault_handler=fault_handler,
        initial_regs=initial_regs,
        name=name,
    )


def save_witness_file(
    path,
    program: Program,
    *,
    meta: Dict[str, object],
    secret_ranges: Tuple[Tuple[int, int], ...] = (),
    tainted_bytes: Tuple[int, ...] = (),
) -> None:
    """Write one corpus entry (pretty-printed, key-sorted, stable)."""
    payload = make_envelope(
        "fuzz-witness",
        meta=dict(meta),
        oracle={
            "secret_ranges": [list(r) for r in secret_ranges],
            "tainted_bytes": list(tainted_bytes),
        },
        program=program_to_dict(program),
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def load_witness_file(path) -> dict:
    """Load one corpus entry.

    Returns ``{"program": Program, "meta": dict,
    "secret_ranges": tuple, "tainted_bytes": tuple}``.  Raises
    ``ValueError`` naming *path* when the file is not readable JSON, not
    a corpus entry, or misses or mistypes a field.
    """
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, RecursionError, ValueError) as error:
        raise ValueError("cannot read corpus file %s: %s" % (path, error)) \
            from None
    if not isinstance(payload, dict):
        raise ValueError("corpus file %s is not a JSON object" % path)
    schema = payload.get("schema")
    if schema == RESULT_SCHEMA:
        if payload.get("kind") != "fuzz-witness":
            raise ValueError(
                "envelope kind %r is not a corpus entry in %s"
                % (payload.get("kind"), path)
            )
    elif schema != LEGACY_SCHEMA:
        raise ValueError(
            "unsupported corpus schema %r in %s" % (schema, path)
        )
    try:
        oracle = _object(payload.get("oracle", {}), "oracle")
        tainted = oracle.get("tainted_bytes", [])
        _check(isinstance(tainted, list)
               and all(isinstance(addr, int) for addr in tainted),
               "oracle.tainted_bytes must be a list of integers")
        return {
            "program": program_from_dict(payload.get("program")),
            "meta": _object(payload.get("meta", {}), "meta"),
            "secret_ranges": _int_pairs(
                oracle.get("secret_ranges", []), "oracle.secret_ranges"
            ),
            "tainted_bytes": tuple(tainted),
        }
    except (AssemblyError, ValueError) as error:
        raise ValueError("malformed corpus file %s: %s" % (path, error)) \
            from None
