"""Synthetic relational-table corpora with known ground truth.

The generator builds a small sports world: people with a unique debut date, a
home city, sometimes a training residence, a club, and clubs with an arena
city. All attributes are functions of the subject, so a masked cell is
recoverable from its row and column alone. Two corpus flavors:

  memorize  three-column tables (player, debut, home town) and a variant with
            a residence column; every cell's value is determined by visible
            context, so a model can drive masked-cell recovery near 100%.
  tasks     mixed schemas plus league structure, schema-correlated caption
            words, extra unlinked columns drawn per (league, schema), and
            side files (types, relations, kb entries, lookup candidates) for
            the downstream tasks.

Run as a module to write a corpus to disk:

    python3 -m tabrep.synth --out DIR --tables 50 --flavor tasks --seed 7
"""

from __future__ import annotations

import argparse
import os

import numpy as np

from .corpus import write_jsonl

_SYL = [
    "ka", "lo", "mi", "ra", "ve", "tu", "sa", "ne", "do", "pi",
    "fa", "zu", "ber", "lin", "mon", "dar", "gel", "ros", "tan", "vik",
]
_MONTHS = [
    "january", "february", "march", "april", "may", "june",
    "july", "august", "september", "october", "november", "december",
]
_CITY_PREFIX = ["port", "san", "new", "east", "west", "old"]
_LEAGUES = [("alpha", "crown"), ("beta", "shield"), ("gamma", "cup"), ("delta", "bowl")]
_EXTRA_POOL = [
    "games", "points", "wins", "losses", "goals", "assists",
    "titles", "seasons", "captain", "coach", "stadium", "capacity",
]
_SCHEMA_NOUN = {"A": "appearances", "A2": "residencies", "B": "memberships", "C": "venues"}


def _word(rng) -> str:
    return _SYL[rng.integers(len(_SYL))] + _SYL[rng.integers(len(_SYL))]


class World:
    """Entities, names, and functional relations shared by all tables."""

    def __init__(self, seed: int, n_people: int = 24, n_cities: int = 12, n_clubs: int = 8):
        rng = np.random.default_rng(seed)
        self.people = [f"person_{i:02d}" for i in range(n_people)]
        self.cities = [f"city_{i:02d}" for i in range(n_cities)]
        self.clubs = [f"club_{i:02d}" for i in range(n_clubs)]
        self.dates = [f"date_{i:02d}" for i in range(n_people)]
        self.names = {}
        for p in self.people:
            self.names[p] = f"{_word(rng)} {_word(rng)}"
        for c in self.cities:
            self.names[c] = f"{_CITY_PREFIX[rng.integers(len(_CITY_PREFIX))]} {_word(rng)}"
        for c in self.clubs:
            self.names[c] = f"{_word(rng)} fc"
        for i, d in enumerate(self.dates):
            self.names[d] = f"{_MONTHS[int(rng.integers(12))]} {1900 + i}"

        n_leagues = len(_LEAGUES)
        per = n_people // n_leagues
        self.league_of = {p: i % n_leagues if per == 0 else min(i // per, n_leagues - 1) for i, p in enumerate(self.people)}
        self.home_city = {p: self.cities[int(rng.integers(n_cities))] for p in self.people}
        # residence matches the home city for half the people
        self.residence = {}
        for i, p in enumerate(self.people):
            if i % 2 == 0:
                self.residence[p] = self.home_city[p]
            else:
                self.residence[p] = self.cities[int(rng.integers(n_cities))]
        self.club_of = {p: self.clubs[int(rng.integers(n_clubs))] for p in self.people}
        self.club_city = {c: self.cities[int(rng.integers(n_cities))] for c in self.clubs}
        self.debut = {p: self.dates[i] for i, p in enumerate(self.people)}

        # two fixed extra headers per (league, schema) so header usage is
        # predictable from the caption
        self.extras = {}
        for li in range(n_leagues):
            for s in ("A", "A2", "B", "C"):
                pick = rng.permutation(len(_EXTRA_POOL))[:2]
                self.extras[(li, s)] = [_EXTRA_POOL[int(i)] for i in sorted(pick)]

    def league_tokens(self, li: int) -> str:
        a, b = _LEAGUES[li]
        return f"{a} {b}"

    def entity_types(self) -> dict[str, list[str]]:
        types: dict[str, list[str]] = {}
        for p in self.people:
            types[p] = ["person", "athlete"]
        for c in self.cities:
            types[c] = ["place", "settlement"]
        for c in self.clubs:
            types[c] = ["group", "team"]
        for d in self.dates:
            types[d] = ["moment"]
        for i in range(len(_LEAGUES)):
            types[f"league_{i}"] = ["group", "competition"]
        return types

    def relations(self) -> list[dict]:
        out = []
        for p in self.people:
            out.append({"subject": p, "object": self.debut[p], "relations": ["first played"]})
            out.append({"subject": p, "object": self.home_city[p], "relations": ["born in"]})
            out.append({"subject": p, "object": self.residence[p], "relations": ["trains in"]})
            out.append({"subject": p, "object": self.club_of[p], "relations": ["member of"]})
        for c in self.clubs:
            out.append({"subject": c, "object": self.club_city[c], "relations": ["based in"]})
        return out

    def kb_entries(self) -> list[dict]:
        out = []
        types = self.entity_types()
        for p in self.people:
            league = self.league_tokens(self.league_of[p])
            out.append(
                {
                    "entity": p,
                    "name": self.names[p],
                    "description": f"{league} player from {self.names[self.home_city[p]]}",
                    "types": types[p],
                }
            )
        for c in self.cities:
            out.append({"entity": c, "name": self.names[c], "description": "settlement on the coast", "types": types[c]})
        for c in self.clubs:
            out.append(
                {
                    "entity": c,
                    "name": self.names[c],
                    "description": f"team playing in {self.names[self.club_city[c]]}",
                    "types": types[c],
                }
            )
        for d in self.dates:
            out.append({"entity": d, "name": self.names[d], "description": "point in the calendar", "types": types[d]})
        for i in range(len(_LEAGUES)):
            out.append(
                {
                    "entity": f"league_{i}",
                    "name": self.league_tokens(i),
                    "description": "competition of clubs",
                    "types": ["group", "competition"],
                }
            )
        return out

    def candidate_lookup(self, rng) -> list[dict]:
        """Mention lookup: the right entity plus same-class distractors. The
        gold lands at rank one most but not all of the time."""
        classes = [self.people, self.cities, self.clubs, self.dates]
        out = []
        for group in classes:
            for e in group:
                others = [x for x in group if x != e]
                picks = rng.permutation(len(others))[:2]
                cands = [e] + [others[int(i)] for i in picks]
                if rng.random() < 0.3 and len(cands) > 1:
                    cands[0], cands[1] = cands[1], cands[0]
                mention = " ".join(self.names[e].split())
                out.append({"mention": mention, "candidates": cands})
        return out


def _cell(world: World, ref: str) -> dict:
    return {"text": world.names[ref], "entity": ref}


def _make_table(world: World, rng, tidx: int, schema: str, n_rows: int, with_extras: bool, with_topic: bool) -> dict:
    li = int(rng.integers(len(_LEAGUES)))
    league = world.league_tokens(li)
    noun = _SCHEMA_NOUN[schema]
    variant = f"{_word(rng)} {_word(rng)}"

    if schema == "C":
        subjects = [world.clubs[int(i)] for i in rng.permutation(len(world.clubs))[:n_rows]]
    else:
        pool = [p for p in world.people if world.league_of[p] == li]
        if len(pool) < n_rows:
            pool = list(world.people)
        subjects = [pool[int(i)] for i in rng.permutation(len(pool))[:n_rows]]

    if schema == "A":
        headers = ["player", "debut", "home town"]
        make_row = lambda s: [_cell(world, s), _cell(world, world.debut[s]), _cell(world, world.home_city[s])]
    elif schema == "A2":
        headers = ["player", "residence", "debut"]
        make_row = lambda s: [_cell(world, s), _cell(world, world.residence[s]), _cell(world, world.debut[s])]
    elif schema == "B":
        headers = ["player", "club"]
        make_row = lambda s: [_cell(world, s), _cell(world, world.club_of[s])]
    else:
        headers = ["club", "arena city"]
        make_row = lambda s: [_cell(world, s), _cell(world, world.club_city[s])]

    rows = [make_row(s) for s in subjects]
    if with_extras:
        for extra in world.extras[(li, schema)]:
            headers = headers + [extra]
            for row in rows:
                row.append(str(int(rng.integers(1, 60))))

    table = {
        "table_id": f"t{tidx:04d}",
        "page_title": f"list of {league} {noun}",
        "section_title": "",
        "caption": f"{league} {noun} roster {variant}",
        "headers": headers,
        "rows": rows,
    }
    if with_topic:
        table["page_entity"] = {"entity": f"league_{li}", "text": league}
    return table


def make_corpus(seed: int, n_tables: int, flavor: str = "tasks") -> tuple[list[dict], World]:
    """Generate raw table records. Roughly half the tables have five or more
    rows so the partition step finds evaluation-eligible tables."""
    world = World(seed)
    rng = np.random.default_rng(seed + 1)
    if flavor == "memorize":
        schemas, weights = ["A", "A2"], [0.6, 0.4]
    elif flavor == "tasks":
        schemas, weights = ["A", "B", "C"], [0.6, 0.25, 0.15]
    else:
        raise ValueError(f"unknown corpus flavor {flavor!r}")
    tables = []
    for t in range(n_tables):
        schema = schemas[int(rng.choice(len(schemas), p=weights))]
        n_rows = int(rng.integers(5, 7)) if rng.random() < 0.5 else int(rng.integers(3, 5))
        if schema == "C":
            n_rows = min(n_rows, len(world.clubs))
        with_topic = bool(rng.random() < 0.5)
        with_extras = flavor == "tasks"
        tables.append(_make_table(world, rng, t, schema, n_rows, with_extras, with_topic))
    return tables, world


def write_corpus(out_dir: str, seed: int, n_tables: int, flavor: str = "tasks") -> None:
    os.makedirs(out_dir, exist_ok=True)
    tables, world = make_corpus(seed, n_tables, flavor)
    rng = np.random.default_rng(seed + 2)

    def dump(name, records):
        write_jsonl(os.path.join(out_dir, name), records)

    dump("raw.jsonl", tables)
    dump("types.jsonl", [{"entity": e, "types": t} for e, t in sorted(world.entity_types().items())])
    dump("relations.jsonl", world.relations())
    dump("kb.jsonl", world.kb_entries())
    dump("candidates.jsonl", world.candidate_lookup(rng))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="generate a synthetic table corpus")
    ap.add_argument("--out", required=True)
    ap.add_argument("--tables", type=int, default=50)
    ap.add_argument("--flavor", choices=["tasks", "memorize"], default="tasks")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    write_corpus(args.out, args.seed, args.tables, args.flavor)
    print(f"wrote {args.tables} tables ({args.flavor}) to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
