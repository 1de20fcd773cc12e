"""Vectorized (numpy) implementations of the device kernels.

Semantically identical to the interpreted kernels — tests assert exact
result equality — but computed array-at-a-time so the full pipelines and
benchmarks run at realistic scales.  The staging copies into shared local
memory are kept so local-memory accounting stays honest.

Both runtime front-ends accept these through their ``vectorized=True``
launch paths; work-group decomposition is fused into large blocks by
:meth:`repro.runtime.executor.NDRangeExecutor.run_vectorized`.
"""

from __future__ import annotations

import numpy as np

from ..core.patterns import MASK_TABLE, MISMATCH_LUT
from ..runtime.executor import GroupContext

_PLUS, _MINUS = ord("+"), ord("-")


def pam_match_block(pat: np.ndarray, checked: np.ndarray,
                    chr: np.ndarray, pos: np.ndarray,
                    offset: int) -> np.ndarray:
    """Mask-match a block of positions against one strand's pattern.

    ``pat`` is a compiled pattern's ``comp`` layout, ``checked`` holds
    the non-N pattern indices and ``offset`` selects the forward (0) or
    reverse (plen) half of it.  A site matches when every checked
    position admits the genome base there; a genome ``N`` or non-IUPAC
    byte at a checked position fails, which keeps assembly gaps out of
    the candidates.  Every window ``chr[pos:pos + plen]`` must lie
    inside ``chr``.  The finder kernel and guide design
    (:mod:`repro.design.enumerate`) both call it.
    """
    if checked.size == 0:
        return np.ones(pos.size, dtype=bool)
    gmask = MASK_TABLE[chr[pos[:, None] + checked[None, :]]]
    pmask = MASK_TABLE[pat[checked + offset]]
    ok = ((gmask & pmask[None, :]) != 0) & (gmask != 15)
    return ok.all(axis=1)


def finder_vectorized(group: GroupContext, chr, pat, pat_index, plen,
                      scan_len, loci, flag, entrycount, l_pat,
                      l_pat_index):
    """Vectorized search kernel (same contract as ``finder``)."""
    n = min(plen * 2, l_pat.shape[0])
    l_pat[:n] = pat[:n]
    l_pat_index[:n] = pat_index[:n]
    start = group.group_start
    end = min(start + group.group_size, int(scan_len))
    if end <= start:
        return
    pos = np.arange(start, end, dtype=np.int64)
    fwd_checked = pat_index[:plen]
    fwd_checked = fwd_checked[fwd_checked >= 0].astype(np.int64)
    rev_checked = pat_index[plen:2 * plen]
    rev_checked = rev_checked[rev_checked >= 0].astype(np.int64)
    fwd_ok = pam_match_block(pat, fwd_checked, chr, pos, 0)
    rev_ok = pam_match_block(pat, rev_checked, chr, pos, plen)
    sel = fwd_ok | rev_ok
    count = int(sel.sum())
    if not count:
        return
    flags = np.where(fwd_ok & rev_ok, 0,
                     np.where(fwd_ok, 1, 2)).astype(flag.dtype)
    old = int(entrycount[0])
    entrycount[0] = old + count
    loci[old:old + count] = pos[sel]
    flag[old:old + count] = flags[sel]


def comparer_batched_vectorized(group: GroupContext, locicnts, nqueries,
                                chr, loci, mm_loci, comp, comp_index, plen,
                                thresholds, flag, mm_count, mm_query,
                                direction, entrycount, l_comp,
                                l_comp_index):
    """Batched multi-query compare kernel: one launch for all queries.

    ``comp``/``comp_index`` stack ``nqueries`` pattern layouts of
    ``2 * plen`` entries each (query ``q``'s layout starts at
    ``q * 2 * plen``), and ``thresholds`` holds one mismatch budget per
    query.  Each accepted site additionally records its query index in
    ``mm_query`` so the host can demultiplex.

    The expensive part of the per-query kernel is the per-launch gather
    of genome windows at the candidate loci plus a mismatch-table lookup
    per (candidate, position).  All queries share the same candidates, so
    the batched kernel gathers each strand's windows once and then packs
    every query's per-position mismatch indicator into one byte lane of a
    shared ``(plen, 256)`` lookup table: a single table pass counts
    mismatches for up to four queries simultaneously, with each query's
    exact count recovered from its lane (:data:`MISMATCH_LUT` is strictly
    0/1 and ``plen < 256``, so lanes cannot carry into each other).
    Unchecked pattern positions hold ``N``, whose table row is all zeros,
    so full-window counting equals checked-only counting.  Emission order
    per query (ascending candidate within forward, then reverse, per
    block) matches the per-query kernel exactly, so demultiplexed results
    are identical.
    """
    nq = int(nqueries)
    plen = int(plen)
    n = min(nq * plen * 2, l_comp.shape[0])
    l_comp[:n] = comp[:n]
    l_comp_index[:n] = comp_index[:n]
    start = group.group_start
    end = min(start + group.group_size, int(locicnts))
    if end <= start:
        return
    idx = np.arange(start, end, dtype=np.int64)
    f = flag[idx]
    base = loci[idx].astype(np.int64)
    cols = np.arange(plen, dtype=np.int64)
    qrows = (np.arange(nq, dtype=np.int64) * (2 * plen))[:, None]
    lane_shifts = (np.arange(4, dtype=np.uint32) * np.uint32(8))
    for offset, direction_char, strand_sel in (
            (0, _PLUS, (f == 0) | (f == 1)),
            (plen, _MINUS, (f == 0) | (f == 2))):
        sub = base[strand_sel]
        if sub.size == 0:
            continue
        windows = chr[sub[:, None] + cols[None, :]]
        counts_by_query = []
        for g0 in range(0, nq, 4):
            gq = min(4, nq - g0)
            # Stacked (gq, plen) pattern matrix for this strand.
            pats = comp[qrows[g0:g0 + gq] + offset + cols[None, :]]
            packed_lut = (
                MISMATCH_LUT[pats].astype(np.uint32)
                << lane_shifts[:gq, None, None]).sum(
                axis=0, dtype=np.uint32)
            packed = packed_lut[cols[None, :], windows].sum(
                axis=1, dtype=np.uint32)
            counts_by_query.extend(
                ((packed >> lane_shifts[lane]) & np.uint32(0xFF))
                .astype(np.int64)
                for lane in range(gq))
        for q in range(nq):
            counts = counts_by_query[q]
            keep = counts <= int(thresholds[q])
            kept = int(keep.sum())
            if not kept:
                continue
            old = int(entrycount[0])
            entrycount[0] = old + kept
            mm_count[old:old + kept] = counts[keep].astype(mm_count.dtype)
            mm_query[old:old + kept] = q
            direction[old:old + kept] = direction_char
            mm_loci[old:old + kept] = sub[keep]


def comparer_vectorized(group: GroupContext, locicnts, chr, loci, mm_loci,
                        comp, comp_index, plen, threshold, flag, mm_count,
                        direction, entrycount, l_comp, l_comp_index):
    """Vectorized compare kernel (same contract as ``comparer_base``).

    The early-exit of Listing 1 only affects counts already above the
    threshold, which are discarded either way, so full counting is
    result-identical.
    """
    n = min(plen * 2, l_comp.shape[0])
    l_comp[:n] = comp[:n]
    l_comp_index[:n] = comp_index[:n]
    start = group.group_start
    end = min(start + group.group_size, int(locicnts))
    if end <= start:
        return
    idx = np.arange(start, end, dtype=np.int64)
    f = flag[idx]
    base = loci[idx].astype(np.int64)
    for offset, direction_char, strand_sel in (
            (0, _PLUS, (f == 0) | (f == 1)),
            (plen, _MINUS, (f == 0) | (f == 2))):
        sub = base[strand_sel]
        if sub.size == 0:
            continue
        ks = comp_index[offset:offset + plen]
        ks = ks[ks >= 0].astype(np.int64)
        if ks.size:
            pats = comp[ks + offset]
            sites = chr[sub[:, None] + ks[None, :]]
            counts = MISMATCH_LUT[pats[None, :], sites].sum(
                axis=1, dtype=np.int64)
        else:
            counts = np.zeros(sub.size, dtype=np.int64)
        keep = counts <= int(threshold)
        kept = int(keep.sum())
        if not kept:
            continue
        old = int(entrycount[0])
        entrycount[0] = old + kept
        mm_count[old:old + kept] = counts[keep].astype(mm_count.dtype)
        direction[old:old + kept] = direction_char
        mm_loci[old:old + kept] = sub[keep]
