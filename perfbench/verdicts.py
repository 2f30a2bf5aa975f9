"""Verdict checker: turn one request's exit code and stdout into a
verdict, and score it against the claim's hand-stated truth.

The CLI contract: exit 0 PROVED, 1 REFUTED, 2 INCONCLUSIVE, 3 input
error.  The text output ends in a line naming the same status, either
`Check whether <claim> ... STATUS` or `STATUS: reason`.  A request

* is *decided* when the verdict is decisive and right: PROVED on a
  true claim or REFUTED on a false one;
* *fails* when the program raised, exited with any other code, printed
  a status that disagrees with its exit code, or gave a verdict that
  contradicts the truth (PROVED on a false claim, REFUTED on a true
  one, anything but INCONCLUSIVE on a degenerate figure);
* is otherwise *undecided*: INCONCLUSIVE on a claim with a truth value,
  which a complete prover would have decided.
"""

from __future__ import annotations

from dataclasses import dataclass

_EXIT_STATUS = {0: "PROVED", 1: "REFUTED", 2: "INCONCLUSIVE"}

DECIDED, UNDECIDED, FAILED = "decided", "undecided", "failed"


@dataclass(frozen=True)
class Outcome:
    status: str | None   # verdict the program gave, None if unreadable
    score: str           # DECIDED, UNDECIDED or FAILED
    why: str = ""


def printed_status(stdout: str) -> str | None:
    """The status word the text output ends with, if any."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        return None
    last = lines[-1]
    for status in _EXIT_STATUS.values():
        if last.startswith(f"{status}:") or last.endswith(f"... {status}"):
            return status
    return None


def judge(exit_code: int | None, stdout: str, truth: bool | None,
          error: str | None = None) -> Outcome:
    """Score one request.  `truth` is None for a degenerate figure."""
    if error is not None:
        return Outcome(None, FAILED, f"raised {error}")
    status = _EXIT_STATUS.get(exit_code)
    if status is None:
        return Outcome(None, FAILED, f"exit code {exit_code}")
    if printed_status(stdout) != status:
        return Outcome(status, FAILED, f"stdout does not say {status}")
    if truth is None:
        if status == "INCONCLUSIVE":
            return Outcome(status, UNDECIDED)
        return Outcome(status, FAILED, f"{status} on a degenerate figure")
    if status == "INCONCLUSIVE":
        return Outcome(status, UNDECIDED)
    if (status == "PROVED") == truth:
        return Outcome(status, DECIDED)
    return Outcome(status, FAILED,
                   f"{status} on a {'true' if truth else 'false'} claim")
