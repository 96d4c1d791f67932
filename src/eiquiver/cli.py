"""Command-line front end.

Commands compute and main prints: each cmd_* is a function of (args,
the loaded category) that returns its JSON payload and its text lines,
and quiver its DOT too.  main is the one place that loads the document,
renders the result in the chosen --format and sets the exit status.  It
refuses --format dot for every command but quiver before the load.

Exit codes: 0 success, else the `exit_code` of the errors.EIQuiverError
raised, after one stderr line `{label}: {message}`: 1 internal invariant
failure, 2 validation failure (the input is well-formed but not a valid
category / prime; a MemoryError, or numpy's SystemError in its place, is
reported as the finding out-of-memory), 3 I/O or schema error, 4 oracle
mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from .chartab import certified_prime, choose_splitting_prime
from .eicat import DEFAULT_PATH_BOUND, load_category
from .errors import (EIQuiverError, OutOfMemory, SchemaError, ValidationError,
                     clear_frames, is_out_of_memory)
from .permgrp import DEFAULT_SIZE_BOUND


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e}") from e
    except (ValueError, RecursionError) as e:   # bad JSON or bad UTF-8
        raise SchemaError(f"{path} is not valid JSON: {e}") from e


def _load(args):
    doc = _read_json(args.input)
    return load_category(doc, max_group=args.max_group,
                         max_paths=args.max_paths)


def _prime(args, cat):
    groups = list(cat.groups.values())
    return (choose_splitting_prime(groups) if args.prime is None
            else certified_prime(args.prime, groups))


# the backslash and every character at which str.splitlines splits a
# line, each to its Python escape
_ONE_LINE = str.maketrans({c: c.encode("unicode_escape").decode()
                           for c in "\\\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def _text(name: str) -> str:
    """An object id, or a label holding one, as one text line's part."""
    return name.translate(_ONE_LINE)


def _emit(args, payload: dict, text_lines, dot: str | None = None) -> None:
    if args.format == "json":
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    elif args.format == "dot":
        sys.stdout.write(dot + "\n")
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def cmd_validate(args, cat) -> tuple:
    payload = {"ok": True, "objects": len(cat.objects),
               "morphisms": cat.morphism_count(),
               "object_order": list(cat.topological_order)}
    return payload, [f"valid: {len(cat.objects)} objects, "
                     f"{cat.morphism_count()} morphisms"]


def cmd_quiver(args, cat) -> tuple:
    from .quiveralg import build_quiver, quiver_document, quiver_dot
    q = build_quiver(cat, _prime(args, cat))
    lines = [f"prime {q.prime.p}"]
    for v in q.vertices:
        lines.append(f"vertex {_text(v.label)} dim {v.dim}")
    for a in q.arrows:
        lines.append(f"arrow {_text(q.vertices[a.source].label)} -> "
                     f"{_text(q.vertices[a.target].label)} x{a.mult}")
    return quiver_document(q), lines, quiver_dot(q)


def cmd_classify(args, cat) -> tuple:
    from .reptype import rep_type
    verdict = rep_type(cat, _prime(args, cat))
    payload = {"verdict": verdict.verdict,
               "certificates": [{"rule": r, "witness": w}
                                for r, w in verdict.certificates]}
    lines = [verdict.verdict] + [f"  {r}: {w}"
                                 for r, w in verdict.certificates]
    return payload, lines


def cmd_screen(args, cat) -> tuple:
    from .reptype import screen_two_object
    findings = screen_two_object(cat, _prime(args, cat))
    payload = {"findings": [{"pair": list(pair), "rule": rule,
                             "witness": witness}
                            for pair, rule, witness in findings]}
    lines = ([f"{_text(pair[0])}->{_text(pair[1])}: {rule} ({witness})"
              for pair, rule, witness in findings]
             or ["no screen fired"])
    return payload, lines


def cmd_cover(args, cat) -> tuple:
    from .freecover import free_cover
    cover = free_cover(cat, max_paths=args.max_paths)
    sizes = {f"{x}->{y}": hs.size for (x, y), hs in sorted(cover.homs.items())}
    payload = {"objects": list(cover.objects),
               "hom_sizes": sizes,
               "morphisms": cover.morphism_count(),
               "original_morphisms": cat.morphism_count()}
    lines = [f"cover has {cover.morphism_count()} morphisms "
             f"(original {cat.morphism_count()})"] + \
            [f"  {_text(k)}: {v}" for k, v in sizes.items()]
    return payload, lines


def cmd_is_free(args, cat) -> tuple:
    from .freecover import is_free
    free = is_free(cat)
    return {"free": free}, ["free" if free else "not free"]


def cmd_oracle(args, cat) -> tuple:
    from .oracle import check_against_quiver
    from .quiveralg import build_quiver
    q = build_quiver(cat, _prime(args, cat))
    oracle = check_against_quiver(q)
    payload = {"ok": True,
               "multiplicities": [
                   {"from": list(a), "to": list(b), "mult": m}
                   for (a, b), m in sorted(oracle.items())]}
    return payload, (
        ["oracle agrees with the quiver computation"] +
        [f"  {a} -> {b}: {m}" for (a, b), m in sorted(oracle.items())])


def cmd_functor(args, cat) -> tuple:
    from .morita import (MoritaContext, apply_functor, load_catrep,
                         quiverrep_document)
    from .quiveralg import build_quiver
    q = build_quiver(cat, _prime(args, cat))
    rep = load_catrep(cat, _read_json(args.rep), q.prime.p)
    ctx = MoritaContext(q)
    qrep = apply_functor(ctx, rep)
    payload = quiverrep_document(qrep)
    lines = [f"vertex {_text(q.vertices[i].label)}: dim {d}"
             for i, d in enumerate(qrep.dims)]
    for a, m in zip(payload["arrows"], qrep.arrow_mats):
        lines.append(f"arrow v{a['from']} -> v{a['to']}: "
                     f"{m.shape[0]}x{m.shape[1]}")
    return payload, lines


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eiquiver",
        description="Quivers, freeness and representation type of finite "
                    "EI categories")
    parser.add_argument("--prime", type=int, default=None,
                        help="splitting prime to use (certified before use)")
    parser.add_argument("--format", choices=("json", "dot", "text"),
                        default="json")
    parser.add_argument("--max-paths", type=int, default=DEFAULT_PATH_BOUND,
                        help="bound on free-category path enumeration")
    parser.add_argument("--max-group", type=int, default=DEFAULT_SIZE_BOUND,
                        help="bound on group enumeration")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, extra in (
            ("validate", cmd_validate, False),
            ("quiver", cmd_quiver, False),
            ("classify", cmd_classify, False),
            ("screen", cmd_screen, False),
            ("cover", cmd_cover, False),
            ("is-free", cmd_is_free, False),
            ("oracle", cmd_oracle, False),
            ("functor", cmd_functor, True)):
        sp = sub.add_parser(name)
        sp.add_argument("input", help="category JSON document")
        if extra:
            sp.add_argument("rep", help="category representation JSON")
        sp.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        # a format the command cannot render is refused before the load
        if args.format == "dot" and args.fn is not cmd_quiver:
            raise ValidationError("bad-format",
                                  "this command has no DOT rendering")
        # the category is the command's argument, not a local here: its
        # frame, cleared below, is then all that holds it
        _emit(args, *args.fn(args, _load(args)))
        return 0
    except EIQuiverError as e:
        err = e
    except (MemoryError, SystemError) as e:
        if not is_out_of_memory(e):
            raise
        # the failed call's frames hold its data; free it, so that there
        # is room to report the error
        clear_frames(e)
        err = OutOfMemory()
    print(f"{err.label}: {err}", file=sys.stderr)
    return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
