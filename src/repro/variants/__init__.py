"""Variant-aware off-target search: haplotype diff layers.

A reference-only search answers "where could this guide cut in the
reference assembly"; edited cells carry variants, and a single SNV can
create a PAM (a cut site the reference search never reports) or
destroy one.  This package searches guide x {reference + K haplotypes}
incrementally:

* :mod:`repro.variants.model` — the VCF-like data model:
  :class:`~repro.variants.model.Variant` (SNVs and small indels, 0-based
  reference coordinates, anchored refs) and named, normalized
  :class:`~repro.variants.model.Haplotype` sets, with typed
  :class:`~repro.variants.model.VariantError` validation;
* :mod:`repro.variants.overlay` — the diff layer:
  :class:`~repro.variants.overlay.HaplotypeOverlay` shares untouched
  reference bytes zero-copy and materializes only windows a variant
  touches; :func:`~repro.variants.overlay.search_variants` rebuilds
  (finder scan + 2-bit re-pack) only the windows its variants can
  change and rides them with the resident reference entries through
  **one** batched comparer pass, then projects haplotype sites back to
  reference coordinates so downstream indel shifts cancel and the
  report is exactly the per-haplotype gained/lost off-targets, with
  causal-variant provenance.  The diff runs on the comparer's columnar
  output; site text is rendered only for the reported events.

The ``variant`` server op, the router fan-out and the client's
``variant_search`` all serialize through
:func:`~repro.variants.overlay.variant_payload`, keeping responses
byte-identical across serving tiers.  ``python -m repro.variants
--smoke`` boots a server and asserts exactly that, plus the
single-batch comparer accounting.
"""

_MODEL_EXPORTS = ("Variant", "Haplotype", "VariantError",
                  "decode_haplotypes")
_OVERLAY_EXPORTS = ("EVENT_FIELDS", "HaplotypeOverlay",
                    "VariantSearchResult", "affected_site_interval",
                    "event_sort_key", "search_variants",
                    "sort_event_rows", "validate_haplotypes",
                    "variant_payload")


def __getattr__(name):
    # Lazy re-export so ``python -m repro.variants`` (runpy) does not
    # warn about double-importing the submodules.
    if name in _MODEL_EXPORTS:
        from . import model
        return getattr(model, name)
    if name in _OVERLAY_EXPORTS:
        from . import overlay
        return getattr(overlay, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")


__all__ = list(_MODEL_EXPORTS + _OVERLAY_EXPORTS)
