"""Structured logging for ``repro``: one sanctioned emitter, leveled and lean.

Two output channels, deliberately distinct:

* :func:`console` — the *deliverable* of a CLI command (result tables, store
  paths, validation verdicts).  Always printed to stdout; CI greps it.  This
  module is the only file in ``src/repro/`` allowed to call ``print`` (ruff's
  ``T201`` ban, see ``ruff.toml``) — everything user-facing funnels through
  here.
* :func:`warn` / :func:`info` / :func:`debug` — structured diagnostics on the
  ``repro`` logger hierarchy.  Messages are privacy-lean ``event key=value``
  lines (no free-form payloads), so fleet-scale log mining stays tractable.
  The CLI's ``--quiet`` / ``--verbose`` flags set the level via
  :func:`configure`; library users attach their own handlers as usual.

Replaces the ad-hoc ``print`` / ``warnings.warn`` emissions that used to live
in the hot paths (e.g. the Poisson arrival-cap truncation warning in
:mod:`repro.workload.arrivals`).
"""

from __future__ import annotations

import logging
import sys
from typing import Optional

__all__ = ["ROOT_LOGGER_NAME", "get_logger", "configure", "console",
           "exception", "warn", "info", "debug", "format_event"]

ROOT_LOGGER_NAME = "repro"


def get_logger(name: str = "") -> logging.Logger:
    """The ``repro`` logger, or a child of it (``get_logger("workload")``)."""
    if not name:
        return logging.getLogger(ROOT_LOGGER_NAME)
    return logging.getLogger(f"{ROOT_LOGGER_NAME}.{name}")


def format_event(event: str, **fields) -> str:
    """Render one structured log line: ``event key=value key=value ...``.

    Values are formatted compactly (floats via ``%g``); field order follows
    the call site, so related emissions stay visually aligned.
    """
    parts = [event]
    for key, value in fields.items():
        if isinstance(value, float):
            parts.append(f"{key}={value:g}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def _log(level: int, event: str, logger: Optional[str], fields: dict,
         exc_info: bool = False) -> None:
    get_logger(logger or "").log(level, format_event(event, **fields), exc_info=exc_info)


def exception(event: str, logger: Optional[str] = None, **fields) -> None:
    """A structured ERROR carrying the traceback of the exception being
    handled — for ``except`` blocks that turn an error into a message and
    would otherwise drop where it came from."""
    _log(logging.ERROR, event, logger, fields, exc_info=True)


def warn(event: str, logger: Optional[str] = None, **fields) -> None:
    """A structured WARNING — surfaced by default (and under ``--quiet``
    only if it escalates to ERROR; truncations and fallbacks belong here)."""
    _log(logging.WARNING, event, logger, fields)


def info(event: str, logger: Optional[str] = None, **fields) -> None:
    """A structured INFO line — surfaced under ``--verbose``."""
    _log(logging.INFO, event, logger, fields)


def debug(event: str, logger: Optional[str] = None, **fields) -> None:
    """A structured DEBUG line — surfaced under ``-vv`` / double verbose."""
    _log(logging.DEBUG, event, logger, fields)


def configure(verbosity: int = 0, stream=None) -> logging.Logger:
    """Install a stderr handler on the ``repro`` logger at the given level.

    ``verbosity``: ``-1`` (``--quiet``) → ERROR, ``0`` → WARNING (default),
    ``1`` (``--verbose``) → INFO, ``>= 2`` → DEBUG.  Re-configuring replaces
    the previously installed handler (idempotent across CLI invocations in
    one process, e.g. the test suite).
    """
    level = {-1: logging.ERROR, 0: logging.WARNING, 1: logging.INFO}.get(
        max(-1, min(verbosity, 2)), logging.DEBUG)
    logger = get_logger()
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_installed", False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    handler._repro_installed = True
    logger.addHandler(handler)
    logger.setLevel(level)
    return logger


def console(message: str = "") -> None:
    """Print one line of CLI deliverable output to stdout.

    Unconditional by design: command output (tables, paths, verdicts) is the
    command's contract — ``--quiet`` silences diagnostics, not results.
    """
    print(message)  # noqa: T201 — the one sanctioned print in src/repro/
