"""Output checks against the answers in expected.json.

Each check takes one invocation's stdout bytes, its stderr text and the
expected answers, and returns a list of mismatches; an empty list means the
output is correct. Pure Python, so the benchmark process stays small.
"""

from __future__ import annotations

import json

REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def _json(stdout: bytes, errors: list) -> dict | None:
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        errors.append(f"stdout is not json: {exc}")
        return None
    if not isinstance(payload, dict):
        errors.append("stdout json is not an object")
        return None
    return payload


def _cmp(errors: list, what: str, got, want) -> None:
    if isinstance(want, float):
        ok = isinstance(got, (int, float)) and _close(float(got), want)
    else:
        ok = got == want
    if not ok:
        errors.append(f"{what}: got {got!r}, expected {want!r}")


def _stderr(errors: list, stderr: str, malformed: int = 0) -> None:
    want = f"note: skipped {malformed} malformed rows\n" if malformed else ""
    if stderr != want:
        errors.append(f"stderr: got {stderr[-300:]!r}, expected {want!r}")


def check_version(stdout: bytes, stderr: str, exp: dict) -> list[str]:
    if stdout.startswith(b"tokenwatt ") and not stderr:
        return []
    return [f"unexpected --version output {stdout[:80]!r} {stderr[-300:]!r}"]


def check_help(stdout: bytes, stderr: str, exp: dict) -> list[str]:
    if stdout.startswith(b"usage: tokenwatt ") and not stderr:
        return []
    return [f"unexpected --help output {stdout[:80]!r} {stderr[-300:]!r}"]


def check_stats(stdout: bytes, stderr: str, exp: dict) -> list[str]:
    errors: list[str] = []
    _stderr(errors, stderr, len(exp["bad_lines"]))
    payload = _json(stdout, errors)
    if payload is None:
        return errors
    _cmp(errors, "kind", payload.get("kind"), "stats")
    _cmp(errors, "count", payload.get("count"), exp["stats"][0]["count"])
    for col, want in zip(("input", "output"), exp["stats"]):
        got = payload.get(col) or {}
        for key in ("mean", "std", "median", "p99"):
            _cmp(errors, f"{col}.{key}", got.get(key), float(want[key]))
        _cmp(errors, f"{col}.max", got.get("max"), want["max"])
    return errors


def check_bin(stdout: bytes, stderr: str, exp: dict) -> list[str]:
    errors: list[str] = []
    _stderr(errors, stderr, len(exp["bad_lines"]))
    meta, counts = {}, []
    try:
        for line in stdout.decode("utf-8").splitlines():
            if line.startswith("#"):
                k, _, v = line[1:].partition("=")
                meta[k.strip()] = v.strip()
            elif line and line != "input_cap,output_cap,count":
                counts.append([int(x) for x in line.split(",")])
    except ValueError as exc:
        return errors + [f"binned csv does not parse: {exc}"]
    want = exp["bins"]
    _cmp(errors, "input_bins", meta.get("input_bins"), ",".join(map(str, exp["grid"][0])))
    _cmp(errors, "output_bins", meta.get("output_bins"), ",".join(map(str, exp["grid"][1])))
    _cmp(errors, "excluded_input", meta.get("excluded_input"), str(want["excluded_input"]))
    _cmp(errors, "excluded_output", meta.get("excluded_output"), str(want["excluded_output"]))
    if counts != want["counts"]:
        diff = {tuple(r) for r in counts} ^ {tuple(r) for r in want["counts"]}
        errors.append(f"bin counts differ in {len(diff)} rows")
    return errors


def check_estimate(index: int):
    """Check for the estimate of exp["estimates"][index]."""
    def check(stdout: bytes, stderr: str, exp: dict) -> list[str]:
        errors: list[str] = []
        _stderr(errors, stderr)
        payload = _json(stdout, errors)
        if payload is None:
            return errors
        want = exp["estimates"][index]
        per_bin = payload.get("per_bin") or []
        _cmp(errors, "kind", payload.get("kind"), "estimate")
        _cmp(errors, "label", payload.get("label"), want["label"])
        _cmp(errors, "total_j", payload.get("total_j"), want["total_j"])
        _cmp(errors, "excluded_requests", payload.get("excluded_requests"),
             exp["priced_excluded"])
        _cmp(errors, "bins priced", len(per_bin), exp["priced_bins"])
        _cmp(errors, "interpolated bins",
             sum(1 for b in per_bin if b.get("provenance") == "interpolated"),
             want["interpolated"])
        return errors
    return check


def check_compare(stdout: bytes, stderr: str, exp: dict) -> list[str]:
    errors: list[str] = []
    _stderr(errors, stderr)
    payload = _json(stdout, errors)
    if payload is None:
        return errors
    optimal = exp["baseline"]["optimal_j"]
    ranked = sorted((e["total_j"], e["label"]) for e in exp["estimates"])
    ref_j = next(t for t, label in ranked if label == exp["reference"])
    entries = payload.get("entries") or []
    _cmp(errors, "ranking", [e.get("label") for e in entries], [label for _, label in ranked])
    _cmp(errors, "baseline_j", payload.get("baseline_j"), optimal)
    for e, (total, label) in zip(entries, ranked):
        _cmp(errors, f"{label}.energy_j", e.get("energy_j"), total)
        _cmp(errors, f"{label}.pct_delta_vs_optimal", e.get("pct_delta_vs_optimal"),
             100.0 * (total - optimal) / optimal)
        if label != exp["reference"]:
            # Savings is a difference of near-equal numbers: compare on the
            # scale of the percentage, not relative to itself.
            got, want = e.get("savings_vs_reference"), 100.0 * (1.0 - total / ref_j)
            if not isinstance(got, (int, float)) or abs(got - want) > 1e-7:
                errors.append(f"{label}.savings_vs_reference: got {got!r}, expected {want!r}")
    return errors


def check_baseline(stdout: bytes, stderr: str, exp: dict) -> list[str]:
    errors: list[str] = []
    _stderr(errors, stderr)
    payload = _json(stdout, errors)
    if payload is None:
        return errors
    for key, want in exp["baseline"].items():
        _cmp(errors, key, payload.get(key), want)
    _cmp(errors, "excluded_requests", payload.get("excluded_requests"), exp["priced_excluded"])
    return errors


def check_validate(stdout: bytes, stderr: str, exp: dict) -> list[str]:
    errors: list[str] = []
    _stderr(errors, stderr)
    want = [f"planned on-grid points: {exp['planned_points']}"]
    want += [f"{e['backend']} on {e['device']}: full coverage" for e in exp["estimates"]]
    _cmp(errors, "coverage report", stdout.decode("utf-8", "replace").splitlines(), want)
    return errors


def check_synth(stdout: bytes, stderr: str, exp: dict) -> list[str]:
    errors: list[str] = []
    _stderr(errors, stderr)
    rows = [line.split(",") for line in stdout.decode("utf-8", "replace").splitlines()
            if line and not line.startswith("#")][1:]
    want = {(i, o): (mb, p, d) for i, o, mb, p, d in exp["synth"]}
    _cmp(errors, "records", len(rows), len(want))
    for row in rows:
        try:
            key = (int(row[2]), int(row[3]))
            mb, prefill, decode = want[key]
            got = (int(row[4]), float(row[7]), float(row[8]))
        except (IndexError, KeyError, ValueError):
            errors.append(f"unexpected synth-table row {','.join(row)!r}")
            continue
        if got[0] != mb or not _close(got[1], prefill) or not _close(got[2], decode):
            errors.append(f"synth-table cell {key}: got {got}, expected {(mb, prefill, decode)}")
    return errors
