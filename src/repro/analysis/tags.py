"""Behavioral actor tagging (GreyNoise-style).

GreyNoise's product attaches human-readable tags to scanning actors
("Mirai", "Web Crawler", "SSH Bruteforcer", …).  This module derives such
tags from captured behavior alone — ports touched, protocols spoken,
credential vocabulary, payload families — and is the qualitative
companion to :mod:`repro.analysis.campaigns`' clustering.

Tags are *descriptive*, not authoritative: a source can carry several.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.analysis.dataset import AnalysisDataset

__all__ = ["TAG_RULES", "tag_sources", "tag_distribution"]

#: Credentials characteristic of Mirai-family botnets.
_MIRAI_MARKERS = frozenset({"xc3511", "vizxv", "xmhdipc", "juantech", "7ujMko0admin", "anko"})
#: Credentials of the Huawei-targeting APAC variant (paper Section 5.1).
_HUAWEI_MARKERS = frozenset({"e8ehome", "e8telnet", "mother", "telecomadmin"})


#: Tag names in rule order; a source receives every matching tag.
TAG_RULES: tuple[str, ...] = (
    "mirai-like",
    "huawei-apac-variant",
    "ssh-bruteforcer",
    "telnet-bruteforcer",
    "web-exploiter",
    "web-crawler",
    "unexpected-protocol-prober",
    "wide-scanner",
)


def _pair_flags(pairs: np.ndarray, selected_codes: set[int], n_sources: int) -> np.ndarray:
    """Per-source flag: source has a (src, code) pair with a selected code."""
    flags = np.zeros(n_sources, dtype=bool)
    if pairs.shape[0] and selected_codes:
        mask = np.isin(pairs[:, 1], np.fromiter(selected_codes, dtype=np.int64))
        flags[pairs[mask, 0]] = True
    return flags


def _engine_tag_sources(aggregates) -> dict[int, frozenset[str]]:
    """Vectorized tagging over per-source aggregates: each TAG_RULES
    rule is one boolean array over all sources."""
    n = len(aggregates)
    mirai_pass = {c for c, v in enumerate(aggregates.pass_values) if v in _MIRAI_MARKERS}
    huawei_user = {c for c, v in enumerate(aggregates.user_values) if v in _HUAWEI_MARKERS}
    huawei_pass = {c for c, v in enumerate(aggregates.pass_values) if v in _HUAWEI_MARKERS}
    exploit_fams = {
        c for c, v in enumerate(aggregates.family_values)
        if v in {"web-application-attack", "attempted-admin", "trojan-activity"}
    }
    http_fp = {c for c, v in enumerate(aggregates.fp_values) if v == "http"}
    #: fingerprints outside {None, "http", "unknown"}.
    odd_fp = {
        c for c, v in enumerate(aggregates.fp_values)
        if v is not None and v not in ("http", "unknown")
    }
    ssh_ports = {22, 2222}
    telnet_ports = {23, 2323}
    http_ports = {80, 8080}

    port_pairs = aggregates.port_pairs
    pass_pairs = aggregates.pass_pairs
    n_ports = (
        np.bincount(port_pairs[:, 0], minlength=n)
        if port_pairs.shape[0] else np.zeros(n, dtype=np.int64)
    )
    n_passwords = (
        np.bincount(pass_pairs[:, 0], minlength=n)
        if pass_pairs.shape[0] else np.zeros(n, dtype=np.int64)
    )

    def port_flags(ports: set[int]) -> np.ndarray:
        flags = np.zeros(n, dtype=bool)
        if port_pairs.shape[0]:
            mask = np.isin(port_pairs[:, 1], np.fromiter(ports, dtype=np.int64))
            flags[port_pairs[mask, 0]] = True
        return flags

    many_passwords = n_passwords >= 2
    # One column per TAG_RULES entry, in order.
    flag_columns = [
        # mirai-like: tried a Mirai marker password
        _pair_flags(pass_pairs, mirai_pass, n),
        # huawei-apac-variant: a marker as username or password
        _pair_flags(aggregates.cred[:, :2], huawei_user, n)
        | _pair_flags(pass_pairs, huawei_pass, n),
        # ssh-/telnet-bruteforcer: the service's ports, >= 2 passwords
        port_flags(ssh_ports) & many_passwords,
        port_flags(telnet_ports) & many_passwords,
        # web-exploiter: an exploit-class Snort alert on a payload
        _pair_flags(aggregates.families, exploit_fams, n),
        # web-crawler: spoke HTTP and never sent malicious traffic
        _pair_flags(aggregates.fp_pairs, http_fp, n) & ~aggregates.malicious,
        # unexpected-protocol-prober: a non-HTTP protocol on an HTTP port
        port_flags(http_ports) & _pair_flags(aggregates.fp_pairs, odd_fp, n),
        # wide-scanner: five or more distinct ports
        n_ports >= 5,
    ]
    flag_matrix = np.stack(flag_columns, axis=1)
    memo: dict[bytes, frozenset[str]] = {}
    tags: dict[int, frozenset[str]] = {}
    sources = aggregates.sources
    for index in aggregates.first_order.tolist():
        key = flag_matrix[index].tobytes()
        tag_set = memo.get(key)
        if tag_set is None:
            tag_set = frozenset(
                tag for tag, flagged in zip(TAG_RULES, flag_matrix[index]) if flagged
            )
            memo[key] = tag_set
        tags[int(sources[index])] = tag_set
    return tags


def tag_sources(dataset: AnalysisDataset) -> dict[int, frozenset[str]]:
    """Tag every observed source IP, in first-observation order;
    untaggable sources get an empty set."""
    return _engine_tag_sources(dataset.source_aggregates())


def tag_distribution(tags: dict[int, frozenset[str]]) -> dict[str, int]:
    """Number of source IPs carrying each tag, by prevalence then name."""
    counts: dict[str, int] = defaultdict(int)
    for tag_set in tags.values():
        for tag in tag_set:
            counts[tag] += 1
    return dict(sorted(counts.items(), key=lambda item: (-item[1], item[0])))
