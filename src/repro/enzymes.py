"""Declarative Cas enzyme registry: PAM + guide anatomy as data.

Cas-OFFinder's command line hard-wires one search pattern per run; the
paper's case study likewise fixes SpCas9's ``N``x20+NRG anatomy.  Real
deployments serve several nucleases side by side — SpCas9, Cas12a
(whose TTTV PAM sits 5' of the spacer), engineered variants — and the
only thing that changes between them is *data*: the PAM codes, which
side of the protospacer they sit on, the guide length, and which
empirical scoring profile applies.  This module makes that data
declarative:

* :class:`CasEnzyme` is a frozen record of one enzyme's anatomy; the
  full search ``pattern`` (the exact string the finder kernel compiles)
  is derived from it — ``N``*guide+PAM for 3'-PAM enzymes, PAM+``N``*
  guide for 5'-PAM ones — so an enzyme definition can never disagree
  with the pattern served for it;
* definitions load from TOML or JSON config files (``[[enzymes]]``
  tables / an ``"enzymes"`` list) with typed :class:`EnzymeError`
  validation naming the file and field, so a malformed config fails at
  startup, not at query time;
* ``serve --enzyme-config`` loads them and the server builds one
  separately-fingerprinted site index per enzyme, routing requests
  carrying an ``"enzyme"`` field to it; the server refuses two enzymes
  with one name.

Only 3'-PAM enzymes admit guide *design* (the design layer enumerates
into a degenerate prefix); 5'-PAM enzymes are searchable but the server
rejects design requests against them with a typed error.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping

try:
    import tomllib  # Python 3.11+
except ImportError:  # pragma: no cover - 3.10 fallback, not exercised
    tomllib = None  # type: ignore[assignment]

from .core.patterns import PatternError, validate_iupac


class EnzymeError(ValueError):
    """A malformed enzyme definition or enzyme config file."""


#: Where the PAM sits relative to the protospacer.
PAM_SIDES = ("3prime", "5prime")

#: Scoring profiles the serving stack knows how to apply.
SCORING_PROFILES = ("mit", "cfd")

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")

#: Keys an enzyme mapping may carry; anything else is a typo, not an
#: extension point — reject it so config drift fails loudly.
_ALLOWED_KEYS = frozenset(
    {"name", "guide_length", "pam", "pam_side", "scoring", "pattern",
     "description"})


@dataclass(frozen=True)
class CasEnzyme:
    """One nuclease's search anatomy, fully declarative."""

    name: str
    guide_length: int
    pam: str              # uppercase IUPAC PAM codes
    pam_side: str         # "3prime" (SpCas9-like) or "5prime" (Cas12a)
    scoring: str          # "mit" or "cfd"
    pattern: str          # full finder pattern, derived from the above
    description: str = ""

    @property
    def plen(self) -> int:
        return self.guide_length + len(self.pam)

    @property
    def designable(self) -> bool:
        """Whether the design layer can enumerate guides for it.

        Guide design fills a degenerate *prefix*; only 3'-PAM patterns
        have one.
        """
        return self.pam_side == "3prime"

    def to_payload(self) -> Dict[str, Any]:
        """Wire form for the ``enzymes`` server op."""
        return {
            "name": self.name,
            "guide_length": int(self.guide_length),
            "pam": self.pam,
            "pam_side": self.pam_side,
            "scoring": self.scoring,
            "pattern": self.pattern,
            "description": self.description,
        }


def derive_pattern(guide_length: int, pam: str, pam_side: str) -> str:
    """The finder pattern implied by an enzyme's anatomy."""
    spacer = "N" * guide_length
    return spacer + pam if pam_side == "3prime" else pam + spacer


def enzyme_from_mapping(mapping: Mapping[str, Any],
                        source: str = "<mapping>") -> CasEnzyme:
    """Validate one enzyme definition; raises :class:`EnzymeError`.

    ``source`` names where the definition came from (file and entry
    index) so errors point at the offending config line, not at this
    module.
    """
    if not isinstance(mapping, Mapping):
        raise EnzymeError(
            f"{source}: enzyme definition must be a table/object, got "
            f"{type(mapping).__name__}")
    unknown = set(mapping) - _ALLOWED_KEYS
    if unknown:
        raise EnzymeError(
            f"{source}: unknown enzyme field(s) {sorted(unknown)}; "
            f"allowed: {sorted(_ALLOWED_KEYS)}")

    name = mapping.get("name")
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise EnzymeError(
            f"{source}: 'name' must be a non-empty identifier "
            f"(letters, digits, '_', '-', '.'), got {name!r}")

    guide_length = mapping.get("guide_length")
    if isinstance(guide_length, bool) or not isinstance(guide_length, int):
        raise EnzymeError(
            f"{source}: 'guide_length' must be an integer, got "
            f"{guide_length!r}")
    if guide_length < 1:
        raise EnzymeError(
            f"{source}: 'guide_length' must be >= 1, got {guide_length}")

    pam = mapping.get("pam")
    if not isinstance(pam, str) or not pam:
        raise EnzymeError(
            f"{source}: 'pam' must be a non-empty IUPAC string, got "
            f"{pam!r}")
    try:
        pam = validate_iupac(pam).tobytes().decode("ascii")
    except PatternError as exc:
        raise EnzymeError(f"{source}: bad PAM {mapping.get('pam')!r}: "
                          f"{exc}") from exc

    pam_side = mapping.get("pam_side", "3prime")
    if pam_side not in PAM_SIDES:
        raise EnzymeError(
            f"{source}: 'pam_side' must be one of {list(PAM_SIDES)}, "
            f"got {pam_side!r}")

    scoring = mapping.get("scoring", "mit")
    if scoring not in SCORING_PROFILES:
        raise EnzymeError(
            f"{source}: 'scoring' must be one of "
            f"{list(SCORING_PROFILES)}, got {scoring!r}")

    description = mapping.get("description", "")
    if not isinstance(description, str):
        raise EnzymeError(
            f"{source}: 'description' must be a string, got "
            f"{description!r}")

    derived = derive_pattern(guide_length, pam, pam_side)
    declared = mapping.get("pattern")
    if declared is not None:
        if not isinstance(declared, str):
            raise EnzymeError(
                f"{source}: 'pattern' must be a string, got "
                f"{declared!r}")
        try:
            declared = validate_iupac(declared).tobytes().decode("ascii")
        except PatternError as exc:
            raise EnzymeError(
                f"{source}: bad pattern {mapping.get('pattern')!r}: "
                f"{exc}") from exc
        if declared != derived:
            raise EnzymeError(
                f"{source}: declared pattern {declared!r} disagrees "
                f"with the anatomy-derived pattern {derived!r} "
                f"(guide_length={guide_length}, pam={pam!r}, "
                f"pam_side={pam_side!r})")
    return CasEnzyme(name=name, guide_length=guide_length, pam=pam,
                     pam_side=pam_side, scoring=scoring, pattern=derived,
                     description=description)


def load_enzymes(path: str) -> List[CasEnzyme]:
    """Load enzyme definitions from a TOML or JSON config file.

    TOML files carry ``[[enzymes]]`` tables; JSON files an object with
    an ``"enzymes"`` list.  Raises :class:`EnzymeError` for unreadable
    files, parse errors, or any invalid definition.
    """
    text_path = str(path)
    if text_path.endswith(".toml"):
        if tomllib is None:  # pragma: no cover
            raise EnzymeError(
                f"{text_path}: TOML enzyme configs need Python 3.11+ "
                f"(tomllib); use a .json config instead")
        try:
            with open(text_path, "rb") as handle:
                raw = tomllib.load(handle)
        except OSError as exc:
            raise EnzymeError(
                f"cannot read enzyme config {text_path}: {exc}") from exc
        except tomllib.TOMLDecodeError as exc:
            raise EnzymeError(
                f"{text_path}: TOML parse error: {exc}") from exc
    elif text_path.endswith(".json"):
        try:
            with open(text_path, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise EnzymeError(
                f"cannot read enzyme config {text_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise EnzymeError(
                f"{text_path}: JSON parse error: {exc}") from exc
    else:
        raise EnzymeError(
            f"enzyme config {text_path!r} must end in .toml or .json")

    if not isinstance(raw, Mapping) or "enzymes" not in raw:
        raise EnzymeError(
            f"{text_path}: expected a top-level 'enzymes' list "
            f"([[enzymes]] tables in TOML)")
    entries = raw["enzymes"]
    if not isinstance(entries, list) or not entries:
        raise EnzymeError(
            f"{text_path}: 'enzymes' must be a non-empty list, got "
            f"{entries!r}")
    return [enzyme_from_mapping(entry, source=f"{text_path}#enzymes[{i}]")
            for i, entry in enumerate(entries)]


#: Built-in definitions, usable without any config file.  SpCas9's PAM
#: is written NRG (its leading N merges into the guide run textually);
#: Cas12a's TTTV PAM sits 5' of a 23-nt spacer.
SPCAS9 = CasEnzyme(
    name="SpCas9", guide_length=20, pam="NRG", pam_side="3prime",
    scoring="cfd", pattern=derive_pattern(20, "NRG", "3prime"),
    description="S. pyogenes Cas9; 20-nt guide, 3' NGG-family PAM")

CAS12A = CasEnzyme(
    name="Cas12a", guide_length=23, pam="TTTV", pam_side="5prime",
    scoring="mit", pattern=derive_pattern(23, "TTTV", "5prime"),
    description="Cas12a (Cpf1); 23-nt spacer, 5' TTTV PAM")

