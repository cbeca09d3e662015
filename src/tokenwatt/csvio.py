"""The `#`-comment csv format of binned workloads, tables and csv reports.

A file is `# key = value` comment lines, one header row, then data rows,
optionally followed by more comment lines; every record is one line. Rows
are written by the csv module: a field holding a comma or a `"` is quoted,
floats are written as `repr` and None as an empty field. The reader strips
every comment, header and field, takes comments from anywhere in the file
(a repeated key keeps its last value), skips blank lines and needs the
header exactly.

A value that would not read back as written is refused on write: one that
core.check_value refuses (`\\r` is not even quoted under `\\n` line
endings), or a `#` leading a row's first field.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Sequence

from ._frozen import frozen
from .core import (BinGrid, ValidationError, check_value, format_caps, open_text, parse_caps,
                   parse_int, parse_value)


def format_csv(
    header: Sequence[str],
    rows: Iterable[Sequence],
    meta: Iterable[tuple[str, object]] = (),
    footer: Iterable[tuple[str, object]] = (),
) -> str:
    """The file text: `meta` comments, the header, `rows`, `footer` comments."""
    buf = io.StringIO()
    buf.writelines(f"# {key} = {check_value(key, str(value))}\n" for key, value in meta)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        for name, value in zip(header, row):
            if isinstance(value, str):
                check_value(name, value)
        if isinstance(row[0], str) and row[0].startswith("#"):
            raise ValidationError(f"{header[0]} {row[0]!r} would read back as a comment")
        writer.writerow(row)
    buf.writelines(f"# {key} = {check_value(key, str(value))}\n" for key, value in footer)
    return buf.getvalue()


def write_csv(path_or_buf, text: str) -> None:
    """Write `text` to a stream, or to a UTF-8 file at a path."""
    if hasattr(path_or_buf, "write"):
        path_or_buf.write(text)
    else:
        Path(path_or_buf).write_text(text, encoding="utf-8")


@frozen
class CsvFile:
    """A parsed file: its comment values and its converted data rows."""

    origin: str
    meta: dict[str, str]
    rows: list

    def meta_int(self, key: str, default: int) -> int:
        """Integer value of a `# key = N` comment, `default` when absent."""
        value = self.meta.get(key)
        if value is None:
            return default
        return parse_value(parse_int, value, f"{self.origin}: '# {key}'")

    def grid(self) -> Optional[BinGrid]:
        """The grid of the `# input_bins` and `# output_bins` comments, None
        when neither is present; one without the other is a data error."""
        caps = {key: parse_value(parse_caps, self.meta[key], f"{self.origin}: '# {key}'")
                for key in ("input_bins", "output_bins") if key in self.meta}
        if len(caps) == 1:
            (have,) = caps
            missing = "output_bins" if have == "input_bins" else "input_bins"
            raise ValidationError(f"{self.origin}: has '# {have}' but no '# {missing}' comment")
        return BinGrid(**caps) if caps else None


def grid_meta(grid: BinGrid) -> list[tuple[str, str]]:
    """The comments that CsvFile.grid reads back."""
    return [("input_bins", format_caps(grid.input_bins)),
            ("output_bins", format_caps(grid.output_bins))]


def read_csv(path_or_buf, header: Sequence[str], what: str,
             parse_row: Callable[[list[str], str], Any]) -> CsvFile:
    """Parse a stream, or the input file at a path, read by core.open_text
    (`what` names it when missing).

    Every data row must have as many fields as `header`; `parse_row(fields,
    where)` converts it as it is read, with `where` the "origin:line" prefix
    for its error messages.
    """
    if hasattr(path_or_buf, "read"):
        return _parse(path_or_buf, header, "<stream>", parse_row)
    origin = str(Path(path_or_buf))
    with open_text(origin, what) as stream:
        return _parse(stream, header, origin, parse_row)


def _parse(stream, header: Sequence[str], origin: str, parse_row) -> CsvFile:
    meta: dict[str, str] = {}
    rows = []
    header = list(header)
    header_seen = False
    lineno = 0
    # csv.reader refuses a `\r` and a field over its size limit; a line with
    # neither and no quote holds exactly the fields that str.split finds
    limit = csv.field_size_limit()
    try:
        for lineno, raw in enumerate(stream, start=1):
            line = raw.strip()
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    k, v = body.split("=", 1)
                    meta[k.strip()] = v.strip()
                continue
            if not line:
                continue
            if '"' in line or "\r" in line or len(line) > limit:
                fields = next(csv.reader((line,)))
            else:
                fields = line.split(",")
            fields = [f.strip() for f in fields]
            if not header_seen:
                if fields != header:
                    raise ValidationError(
                        f"{origin}:{lineno}: bad header; expected {','.join(header)!r}"
                    )
                header_seen = True
            elif len(fields) != len(header):
                raise ValidationError(
                    f"{origin}:{lineno}: expected {len(header)} fields, got {len(fields)}"
                )
            else:
                rows.append(parse_row(fields, f"{origin}:{lineno}"))
    except csv.Error as exc:
        raise ValidationError(f"{origin}:{lineno}: unreadable csv ({exc})") from None
    if not header_seen:
        raise ValidationError(f"{origin}: missing header row")
    return CsvFile(origin=origin, meta=meta, rows=rows)
