"""Command-line front end: simulate, complexity, selftest.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
Every run echoes its fully resolved configuration before computing, so any
output is reproducible from the echoed text alone.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .complexity import BASELINE_CONVENTION, COUNTING_CONVENTION, REPORT_COLUMNS, report_rows
from .selftest import run_selftest
from .sim import (
    SNR_CONVENTION,
    ConfigError,
    apply_overrides,
    config_as_dict,
    load_config,
    run_sweep,
    write_results,
)


def _parse_overrides(text: str | None) -> dict[str, object]:
    overrides: dict[str, object] = {}
    if not text:
        return overrides
    # a comma inside [...] belongs to a list value, e.g. snr_db_list=[9,10]
    for item in re.split(r",(?![^\[]*\])", text):
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, value = item.split("=", 1)
        key = key.strip()
        try:
            overrides[key] = json.loads(value)
        except json.JSONDecodeError:
            overrides[key] = value.strip()
    return overrides


def _parse_m_grid(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--m expects LO:STEP:HI, got {text!r}")
    try:
        lo, step, hi = (int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"--m expects integers LO:STEP:HI, got {text!r}") from None
    if lo < 1 or step < 1 or hi < lo:
        raise ConfigError(f"--m grid must satisfy 1 <= LO <= HI with STEP >= 1, got {text!r}")
    return list(range(lo, hi + 1, step))


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    overrides = _parse_overrides(args.override)
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if overrides:
        config = apply_overrides(config, overrides)
    print("resolved configuration:")
    print(json.dumps(config_as_dict(config), indent=2))
    print(f"snr convention: {SNR_CONVENTION}")
    result = run_sweep(config)
    write_results(result, args.out)
    for p in result.points:
        print(
            f"snr_db={p.snr_db:g} ber={p.ber:.6g} errors={p.bit_errors} "
            f"bits={p.bits_sent} frames={p.frames} flag={p.flag}"
        )
    print(f"wrote {len(result.points)} point(s) to {args.out}")
    return 0


def _cmd_complexity(args) -> int:
    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    m_values = _parse_m_grid(args.m)
    print(f"resolved configuration: m_grid={m_values} k={args.k} seed={args.seed}")
    print(f"counting convention: {COUNTING_CONVENTION}")
    print(f"baseline: {BASELINE_CONVENTION}")
    lines = [REPORT_COLUMNS] + report_rows(m_values, args.k, args.seed)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {len(lines) - 1} row(s) to {args.out}")
    else:
        for line in lines:
            print(line)
    return 0


def _cmd_selftest(args) -> int:
    print(f"resolved configuration: seed={args.seed}")
    failures = run_selftest(seed=args.seed)
    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbdmimo",
        description="Residual-based MMSE detection: BER simulation and complexity accounting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a BER sweep from a JSON config")
    p_sim.add_argument("--config", required=True, help="path to the JSON simulation config")
    p_sim.add_argument("--override", default=None, help="comma-separated key=value overrides")
    p_sim.add_argument("--out", default="results.csv", help="output CSV path")
    p_sim.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_sim.set_defaults(func=_cmd_simulate)

    p_cx = sub.add_parser("complexity", help="emit the operation-count comparison CSV")
    p_cx.add_argument("--m", required=True, help="user-count grid LO:STEP:HI")
    p_cx.add_argument("--k", required=True, type=int, help="iteration count")
    p_cx.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    p_cx.add_argument("--seed", type=int, default=0, help="seed for the counted runs")
    p_cx.set_defaults(func=_cmd_complexity)

    p_st = sub.add_parser("selftest", help="run the fast invariant suite")
    p_st.add_argument("--seed", type=int, default=2024)
    p_st.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
