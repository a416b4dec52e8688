"""Seeded input generator for the citefrac benchmark workloads.

Every workload is built from ``random.Random(f"{workload}:{seed}")``, so the
same (workload, seed) pair always yields byte-identical inputs. The truth
that the output check compares against (unit ownership, exact integer and
fractional counts, rejected records, planted links) is derived from the
generator's own construction; nothing here imports citefrac.

Sizes, unit sizes and malformed-record counts are fixed per workload; the
seed only moves addresses, years, doctypes, reference lists and citation
targets. That keeps the amount of work per run the same across seeds (in
particular the set of distinct group sizes, which sets how many
studentized-range quantiles Dunnett's C solves).

Inputs land in one directory per (workload, seed) with a ``DONE`` marker
written last; a directory with the marker is reused as is.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import shutil
from collections import Counter
from pathlib import Path

EVALUATED = ("Article", "Review", "Proceedings Paper")
OTHER_DOCTYPES = ("Letter", "Editorial Material", "Meeting Abstract")
ELIGIBLE = frozenset(EVALUATED)

WINDOWS = {
    "paper27": ((2005, 2007), (2005, 2009)),
    "links-heavy": ((2005, 2007), (2005, 2009), (2005, 2010)),
}

_OTHER_INSTS = (
    ("Peking Univ", "Beijing 100871"),
    ("Fudan Univ", "Shanghai 200433"),
    ("Zhejiang Univ", "Hangzhou 310027"),
    ("Nanjing Univ", "Nanjing 210093"),
)
_SURNAMES = (
    "Wang", "Li", "Zhang", "Liu", "Chen", "Yang", "Huang", "Zhao", "Smith",
    "Lee", "Kim", "Garcia", "Muller", "Rossi", "Tanaka", "Novak",
)
_JOURNALS = (
    "PHYS REV B", "J AM CHEM SOC", "APPL PHYS LETT", "J CHEM PHYS",
    "NANO LETT", "LANGMUIR", "J APPL PHYS", "CHEM MATER",
)


def _title(tokens) -> str:
    return " ".join(t.title() for t in tokens)


def _distinct_choices(rng: random.Random, population, cum, n: int) -> list:
    """n distinct draws, weighted by the precomputed cumulative weights."""
    chosen: list = []
    seen: set = set()
    while len(chosen) < n:
        for item in rng.choices(population, cum_weights=cum, k=n - len(chosen)):
            if item not in seen:
                seen.add(item)
                chosen.append(item)
    return chosen


def _zipf_cum(n: int, exponent: float, rng: random.Random) -> list[float]:
    """Cumulative Zipf weights over a random permutation of n items."""
    weights = [1.0 / (r ** exponent) for r in range(1, n + 1)]
    rng.shuffle(weights)
    return list(itertools.accumulate(weights))


def _reference_count(rng: random.Random) -> int:
    """A reference-list length from about 5 to several hundred."""
    return max(5, min(400, int(math.exp(rng.gauss(3.3, 0.75)))))


def _fraction(counts: Counter) -> tuple[int, int]:
    """sum(count / k) over a Counter {k: count}, as a reduced num/den."""
    if not counts:
        return 0, 1
    den = math.lcm(*counts)
    num = sum(c * (den // k) for k, c in counts.items())
    g = math.gcd(num, den)
    return num // g, den // g


# ---------------------------------------------------------------------------
# Canonical workloads: shared citing side and truth
# ---------------------------------------------------------------------------


def _citing_records(rng, n, prefix, cited_ids, cum, years, year_weights, mean_links):
    """Citing-only canonical records with skewed targets and a wide range of k."""
    year_cum = list(itertools.accumulate(year_weights))
    records = []
    for i in range(n):
        m = max(1, min(40, int(rng.expovariate(1.0 / mean_links)) + 1))
        cites = _distinct_choices(rng, cited_ids, cum, m)
        roll = rng.random()
        if roll < 0.003:
            nrefs = 0  # skipped for k = 0
        elif roll < 0.033:
            nrefs = None  # k falls back to the length of the reference list
        else:
            nrefs = max(m, _reference_count(rng))
        if nrefs is None:
            extra = max(0, _reference_count(rng) - m)
            cites = cites + [f"EXT{prefix}{i}.{j}" for j in range(extra)]
        inst, city = rng.choice(_OTHER_INSTS)
        records.append({
            "id": f"{prefix}{i:07d}",
            "side": "citing",
            "year": rng.choices(years, cum_weights=year_cum)[0],
            "doctype": rng.choice(EVALUATED + OTHER_DOCTYPES[:1]),
            "addresses": [f"{inst}, Dep {rng.choice(('Phys', 'Chem', 'Math'))}, {city}, Peoples R China"],
            "nrefs": nrefs,
            "cites": cites,
            "doi": None,
        })
    return records


def _count_truth(records, cited, windows, owners):
    """Exact per-paper and per-unit counts for every window.

    Mirrors the counting contract: a link counts when the citing year lies
    in the window, with weight 1/k, k = nrefs if present else len(cites);
    citing documents with k = 0 are skipped. Only cited papers of an
    evaluated doctype are scored.
    """
    cited_ids = {r["id"] for r in cited}
    eligible = {r["id"] for r in cited if r["doctype"] in ELIGIBLE}
    per_window: dict[str, dict] = {}
    links = 0
    skipped = {f"{a}-{b}": set() for a, b in windows}
    tallies = {f"{a}-{b}": {} for a, b in windows}
    for rec in records:
        if rec["side"] == "cited":
            continue
        k = rec["nrefs"] if rec["nrefs"] is not None else len(rec["cites"])
        for ref in rec["cites"]:
            if ref not in cited_ids:
                continue
            links += 1
            if ref not in eligible:
                continue
            for a, b in windows:
                if not a <= rec["year"] <= b:
                    continue
                label = f"{a}-{b}"
                if k == 0:
                    skipped[label].add(rec["id"])
                    continue
                tallies[label].setdefault(ref, Counter())[k] += 1
    for label, by_paper in tallies.items():
        papers = {}
        for pid in sorted(eligible):
            counts = by_paper.get(pid, Counter())
            num, den = _fraction(counts)
            papers[pid] = [sum(counts.values()), num, den]
        units = {}
        for unit, members in owners.items():
            scored = [pid for pid in members if pid in eligible]
            total = Counter()
            for pid in scored:
                total.update(by_paper.get(pid, Counter()))
            num, den = _fraction(total)
            units[unit] = {"P": len(scored), "IC": sum(total.values()), "FC": [num, den]}
        per_window[label] = {
            "papers": papers,
            "units": units,
            "skipped_citing": len(skipped[label]),
        }
    return per_window, links


def _finish_canonical(dest, cited, citing, units_text, owners, windows):
    records = cited + citing
    per_window, links = _count_truth(records, cited, windows, owners)
    truth = {
        "records": len(records),
        "cited": len(cited),
        "links": links,
        "addresses": sum(len(r["addresses"]) for r in records),
        "units": {u: sorted(m) for u, m in owners.items()},
        "windows": [f"{a}-{b}" for a, b in windows],
        "counts": per_window,
    }
    with open(dest / "corpus.jsonl", "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
    (dest / "units.txt").write_text(units_text, encoding="utf-8")
    (dest / "truth.json").write_text(json.dumps(truth), encoding="utf-8")


# ---------------------------------------------------------------------------
# paper27: the paper's 27-department evaluation
# ---------------------------------------------------------------------------

_FIELDS = ("phys", "chem", "math", "biol", "mech", "elec", "civ", "mat", "comp")
_VARIANTS = ((), ("engr",), ("appl",))


def _paper27_units():
    """27 departments in 9 families; a family's base unit subtracts its
    two extensions, whose phrases contain the base phrase."""
    units = []
    for field_name in _FIELDS:
        family = [(field_name,) + v for v in _VARIANTS]
        names = ["Dep " + _title(tokens) for tokens in family]
        for i, tokens in enumerate(family):
            alts = []
            words = " ".join(tokens)
            for inst in ("tsing hua univ", "tsinghua univ"):
                for form in ("sch {}", "{} sch", "dep {}", "{} dep", "coll {}", "{} coll"):
                    alts.append(f"{inst} same {form.format(words)}")
            line = (
                f"{names[i]} := ad=({' or '.join(alts)}) "
                "and ad=(china not taiwan) and py=2005"
            )
            minus = names[i + 1:]
            if minus:
                line += " minus " + ", ".join(minus)
            units.append((names[i], tokens, line))
    return units


def _tsinghua_address(rng, tokens) -> str:
    inst = rng.choice(("Tsinghua Univ", "Tsing Hua Univ"))
    kind = rng.choice(("Dep", "Sch", "Coll"))
    words = _title(tokens)
    dept = f"{kind} {words}" if rng.random() < 0.5 else f"{words} {kind}"
    return f"{inst}, {dept}, Beijing 100084, Peoples R China"


def _other_address(rng) -> str:
    inst, city = rng.choice(_OTHER_INSTS)
    return f"{inst}, Dep {rng.choice(_FIELDS).title()}, {city}, Peoples R China"


def _taiwan_address(rng) -> str:
    return f"Natl Tsing Hua Univ, Dep {rng.choice(_FIELDS).title()}, Hsinchu 30013, Taiwan"


# Papers of an evaluated doctype owned by the unit of each rank, before the
# two joint papers every unit gets: a skewed share in five tiers, so Dunnett's
# C solves five studentized-range quantiles (each about 0.4 s on a 2-vCPU
# host). This is about a quarter of the paper's 2k cited / 20k citing shape
# with 24 distinct sizes (a 15 s invocation): the host's speed drifts by 20%
# over tens of seconds, and only a median over many short invocations per run
# is steady. Stats stays the largest layer and assignment the second.
_PAPER27_SIZES = [48] + [32] * 2 + [22] * 4 + [14] * 8 + [9] * 12
PAPER27_CITED, PAPER27_CITING = 600, 6000


def gen_paper27(dest: Path, rng: random.Random) -> None:
    units = _paper27_units()
    owners: dict[str, set[str]] = {name: set() for name, _, _ in units}
    cited: list[dict] = []

    def add(addresses, year=2005, doctype=None, own=()):
        rid = f"P{len(cited):06d}"
        cited.append({
            "id": rid, "side": "cited", "year": year,
            "doctype": doctype or rng.choice(EVALUATED),
            "addresses": addresses, "nrefs": None, "cites": [], "doi": None,
        })
        for unit in own:
            owners[unit].add(rid)

    for (name, tokens, _), size in zip(units, _PAPER27_SIZES):
        for _ in range(size):
            addrs = [_tsinghua_address(rng, tokens)]
            if rng.random() < 0.3:
                addrs.append(_other_address(rng))  # SAME keeps it out of other units
                rng.shuffle(addrs)
            add(addrs, own=(name,))
        for doctype in OTHER_DOCTYPES[:2]:  # owned, but not evaluated
            add([_tsinghua_address(rng, tokens)], doctype=doctype, own=(name,))
        for year in (2004, 2006):  # right department, wrong year
            add([_tsinghua_address(rng, tokens)], year=year)
        # Right department, but a Taiwan address on the record.
        add([_tsinghua_address(rng, tokens), _taiwan_address(rng)])
    # Joint papers of two departments in different families count for both.
    for i, (name, tokens, _) in enumerate(units):
        other_name, other_tokens, _ = units[(i + 3) % len(units)]
        add(
            [_tsinghua_address(rng, tokens), _tsinghua_address(rng, other_tokens)],
            own=(name, other_name),
        )
    while len(cited) < PAPER27_CITED:
        if rng.random() < 0.5:
            add([_taiwan_address(rng)])
        else:
            add([_other_address(rng)], year=rng.choice((2004, 2005, 2006)))

    cited_ids = [r["id"] for r in cited]
    cum = _zipf_cum(len(cited_ids), 0.7, rng)
    # A share of the cited papers also cite others ("both" side).
    for rec in cited:
        if rec["year"] >= 2005 and rng.random() < 0.1:
            refs = [c for c in _distinct_choices(rng, cited_ids, cum, 3) if c != rec["id"]]
            rec["side"] = "both"
            rec["cites"] = refs
            rec["nrefs"] = max(len(refs), _reference_count(rng))
    citing = _citing_records(
        rng, PAPER27_CITING, "Q", cited_ids, cum,
        years=(2005, 2006, 2007, 2008, 2009, 2010),
        year_weights=(1, 2, 3, 3, 3, 2), mean_links=2.7,
    )
    units_text = "# Synthetic 27-department evaluation.\n" + "".join(
        line + "\n" for _, _, line in units
    )
    _finish_canonical(dest, cited, citing, units_text, owners, WINDOWS["paper27"])


# ---------------------------------------------------------------------------
# links-heavy: exact counting over a large citing side
# ---------------------------------------------------------------------------

_LINKS_INSTS = ("North", "South", "East", "West")
# A quarter of the design target (10k cited, 150k citing, ~440k links),
# with the same links per cited paper and the same k distribution: on a
# 2-core machine whose speed drifts by 20% within seconds, a run needs many
# short invocations for a steady median.
LINKS_CITED, LINKS_CITING = 2500, 37500


def gen_links_heavy(dest: Path, rng: random.Random) -> None:
    owners: dict[str, set[str]] = {f"Unit {inst}": set() for inst in _LINKS_INSTS}
    cited: list[dict] = []
    for i in range(LINKS_CITED):
        rid = f"P{i:06d}"
        roll = rng.random()
        picks = []
        if roll < 0.8:
            picks.append(rng.choice(_LINKS_INSTS))
            if roll < 0.05:
                picks.append(rng.choice([x for x in _LINKS_INSTS if x != picks[0]]))
        addresses = [
            f"{inst} State Univ, Dep {rng.choice(_FIELDS).title()}, {inst} City, USA"
            for inst in picks
        ] or [_other_address(rng)]
        for inst in picks:
            owners[f"Unit {inst}"].add(rid)
        cited.append({
            "id": rid, "side": "cited", "year": rng.choice((2004, 2005, 2006)),
            "doctype": rng.choice(EVALUATED) if rng.random() < 0.9 else rng.choice(OTHER_DOCTYPES),
            "addresses": addresses, "nrefs": None, "cites": [], "doi": None,
        })
    cited_ids = [r["id"] for r in cited]
    cum = _zipf_cum(len(cited_ids), 0.8, rng)
    citing = _citing_records(
        rng, LINKS_CITING, "Q", cited_ids, cum,
        years=(2005, 2006, 2007, 2008, 2009, 2010, 2011),
        year_weights=(1, 2, 3, 3, 3, 3, 2), mean_links=2.4,
    )
    units_text = "".join(
        f"Unit {inst} := ad=({inst.lower()} state univ)\n" for inst in _LINKS_INSTS
    )
    _finish_canonical(dest, cited, citing, units_text, owners, WINDOWS["links-heavy"])


# ---------------------------------------------------------------------------
# ingest-tagged: a WoS-style export
# ---------------------------------------------------------------------------

# A quarter of the design target of ~150k records, for the same reason.
INGEST_RECORDS = 37500


def gen_ingest_tagged(dest: Path, rng: random.Random) -> None:
    n = INGEST_RECORDS
    dois = [f"10.{1000 + i % 8000}/cf.{i}" for i in range(n)]
    # Fixed numbers of malformed records; the last record is left open.
    bad = rng.sample(range(n - 1), n // 160)
    bad_py, no_id = set(bad[: n // 300]), set(bad[n // 300:])
    cum = _zipf_cum(n, 0.6, rng)
    # Pools of author and reference text; the DOIs are what the check reads.
    authors = [f"{s}, {chr(65 + j)}" for s in _SURNAMES for j in range(26)]
    ref_heads = [
        f"{rng.choice(_SURNAMES)} {chr(65 + rng.randrange(26))}, {rng.randint(1990, 2004)}, "
        f"{rng.choice(_JOURNALS)}, V{rng.randint(1, 120)}, P{rng.randint(1, 9000)}, DOI "
        for _ in range(1024)
    ]
    cites_of: dict[int, list[str]] = {}
    addresses_expected = 0
    with open(dest / "export.txt", "w", encoding="utf-8") as out, \
            open(dest / "expected_records.jsonl", "w", encoding="utf-8") as expected:
        out.write("FN Synthetic Export\nVR 1.0\n")
        for i in range(n):
            year = rng.choice((2003, 2004, 2005, 2006, 2007, 2008))
            doctype = rng.choice(EVALUATED) if rng.random() < 0.9 else rng.choice(OTHER_DOCTYPES)
            addresses = [
                _tsinghua_address(rng, (rng.choice(_FIELDS),))
                if rng.random() < 0.5 else _other_address(rng)
                for _ in range(rng.choice((1, 2, 2, 3)))
            ]
            refs = [
                dois[j]
                for j in _distinct_choices(rng, range(n), cum, rng.randint(2, 5))
                if j != i
            ]
            cr_dois = refs + [f"10.9999/ext.{i}.{e}" for e in range(rng.randint(0, 2))]
            rng.shuffle(cr_dois)
            nrefs = len(cr_dois) + rng.randint(5, 40) if rng.random() < 0.98 else None

            rec = [
                f"PT {rng.choice(('J', 'J', 'C'))}",
                f"AU {rng.choice(authors)}",
                f"   {rng.choice(authors)}",
                f"TI Synthetic record {i} on fractional counting",
                f"SO {rng.choice(_JOURNALS)}",
                f"DT {doctype}",
                f"PY {'2O05' if i in bad_py else year}",
            ]
            if nrefs is not None:
                rec.append(f"NR {nrefs}")
            # One address in ten is shared by two authors, whose names the
            # bracket prefix separates with ';' as real exports do.
            brackets = [
                "; ".join(f"{rng.choice(authors)}." for _ in range(1 if rng.random() < 0.9 else 2))
                for _ in addresses
            ]
            c1 = [f"[{b}] {a}" for b, a in zip(brackets, addresses)]
            if len(c1) > 1 and rng.random() < 0.5:
                rec.append("C1 " + "; ".join(c1))
            else:
                rec.append("C1 " + c1[0])
                rec.extend("   " + c for c in c1[1:])
            cr = [rng.choice(ref_heads) + d for d in cr_dois]
            cr.insert(rng.randint(0, len(cr)), "ANON, 1999, OLD J, V1, P1")  # no DOI
            rec.append("CR " + cr[0])
            rec.extend("   " + c for c in cr[1:])
            if i not in no_id:
                rec.append(f"UT WOS:{i:015d}")
                rec.append(f"DI {dois[i]}")
            if i != n - 1:
                rec.append("ER")
            out.write("\n".join(rec) + "\n")
            if i in bad_py or i in no_id or i == n - 1:
                continue
            cites_of[i] = cr_dois
            addresses_expected += len(addresses)
            expected.write(json.dumps({
                "id": f"WOS:{i:015d}", "year": year,
                "doctype": doctype, "addresses": addresses, "nrefs": nrefs,
                "cites": cr_dois, "doi": dois[i],
                "shared_bracket": any(";" in b for b in brackets),
            }, ensure_ascii=False) + "\n")
        out.write("EF\n")
    accepted_dois = {dois[i] for i in cites_of}
    planted = sum(1 for refs in cites_of.values() for d in refs if d in accepted_dois)
    truth = {
        "records": n,
        "accepted": len(cites_of),
        "rejected": n - len(cites_of),
        "links_expected": planted,
        "addresses_expected": addresses_expected,
    }
    (dest / "truth.json").write_text(json.dumps(truth), encoding="utf-8")


GENERATORS = {
    "paper27": gen_paper27,
    "links-heavy": gen_links_heavy,
    "ingest-tagged": gen_ingest_tagged,
}


# Cached input sets kept per workload; older ones are deleted.
KEEP_PER_WORKLOAD = 3


def ensure_inputs(cache: Path, workload: str, seed: int) -> Path:
    """Generate the inputs for (workload, seed) once; later calls reuse them.

    The directory name carries a hash of this file, so inputs made by an
    older generator are never reused.
    """
    version = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:12]
    dest = cache / f"{workload}-{seed}-{version}"
    if not (dest / "DONE").is_file():
        tmp = cache / f".{dest.name}.{os.getpid()}.tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        GENERATORS[workload](tmp, random.Random(f"{workload}:{seed}"))
        (tmp / "DONE").write_text("", encoding="utf-8")
        shutil.rmtree(dest, ignore_errors=True)
        tmp.rename(dest)
    os.utime(dest)
    older = sorted(cache.glob(f"{workload}-*"), key=lambda p: p.stat().st_mtime)
    for stale in older[:-KEEP_PER_WORKLOAD]:
        shutil.rmtree(stale, ignore_errors=True)
    return dest
