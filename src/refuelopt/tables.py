"""The one CSV dialect of every table the package reads or writes.

Trip logs, road graphs, station price histories, trip graphs and reports
share these rules, decided here and nowhere else:

- UTF-8, `\\n` line endings, the `csv` module's default quoting;
- the first line is exactly the table's header, else `SchemaError` (so is a
  file that is not UTF-8);
- every data row has exactly as many fields as the header;
- a bad row is a `ParseError` carrying its line number in the file (the
  header is line 1; a row with a quoted line break ends on its last line);
- an operating-system failure is an `IoError`.

Each module keeps its own row parsing and formatting (floats are written with
`repr`, so export -> import -> export round-trips byte for byte).
"""

from __future__ import annotations

import csv
from collections.abc import Callable, Iterable, Sequence
from itertools import islice
from typing import Any, TypeVar

from . import errors

T = TypeVar("T")


def read_table(path: str, header: list[str],
               parse: Callable[[list[str]], T]) -> list[T]:
    """`parse` applied to every data row of the CSV at `path`, in file order.

    `parse` reports a bad row by raising ValueError, IndexError, KeyError or
    TypeError; the row's line number is added here.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            first = next(reader, None)
            if first is None:
                raise errors.SchemaError(f"{path}: empty file, expected header {header}")
            if first != header:
                raise errors.SchemaError(f"{path}: expected header {header}, got {first}")
            out = []
            for row in reader:
                if len(row) != len(header):
                    raise errors.ParseError(
                        reader.line_num, f"expected {len(header)} fields, got {len(row)}")
                try:
                    out.append(parse(row))
                except (ValueError, IndexError, KeyError, TypeError) as exc:
                    raise errors.ParseError(reader.line_num, str(exc)) from None
    except csv.Error as exc:  # such as a field over the csv module's size limit
        raise errors.ParseError(reader.line_num, str(exc)) from None
    except UnicodeDecodeError as exc:
        raise errors.SchemaError(f"{path}: not UTF-8: {exc}") from None
    except OSError as exc:
        raise errors.IoError(str(exc)) from exc
    return out


def row_line(path: str, index: int) -> int:
    """The line number `read_table` gives data row `index` (from 0) of the
    CSV at `path`, for a check made after the file was read."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            for _ in islice(reader, index + 2):  # the header, then rows 0..index
                pass
            return reader.line_num
    except OSError as exc:
        raise errors.IoError(str(exc)) from exc


def write_table(path: str, header: Sequence[str],
                rows: Iterable[Sequence[Any]]) -> None:
    """Write `header` and then `rows` as the CSV at `path`."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise errors.IoError(str(exc)) from exc
