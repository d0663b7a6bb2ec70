"""The benchmark's workloads: input generation, set-up and one timed round.

Set-up is two functions. `prepare(seed, size)` generates the tables from the
seed and runs the preparation the CLI runs before training: parse, clean,
filter, build vocabularies, pack and index. `finish(data, size, scratch)`
builds the training configuration and, for `tasks`, pre-trains the base
model. `run_round(state, clock)` runs the timed work once and returns a
`Round`. A round starts from the same state every time, so all
rounds of one run must give bitwise-equal losses and quality metrics.

The program sees only the generated tables; it is driven through its public
modules exactly as `cli.py` drives it. Module attributes are looked up at call
time so that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from tabrep import baselines, corpus, encoder, encoding, pretrain, store, synth, tasks

# Instances kept per task on `tasks`, so that every seed asks for the same
# work: 40 tables give 100 to 112 column-type, 60 to 72 relation, 439 to 519
# linking and 264 to 332 cell-filling instances over seeds 1 to 12. Row
# population and schema give one instance per table (40).
INSTANCES = {"coltype": 96, "relations": 56, "linking": 420, "fill": 256}

# Run sizes. "full" is what the benchmark measures; "tiny" only exercises
# every code path, for the benchmark's own tests.
SIZES = {
    "full": {
        "pretrain_small": {"tables": 50, "epochs": 8, "recovery_tables": 25},
        "pretrain_long": {"tables": 24, "epochs": 3, "recovery_tables": 2},
        "tasks": {
            "tables": 40,
            "base_epochs": 12,
            "epochs": {"coltype": 4, "relations": 10, "linking": 1, "rowpop": 3, "schema": 10},
            "instances": INSTANCES,
            "recovery_tables": 8,
        },
    },
    "tiny": {
        "pretrain_small": {"tables": 12, "epochs": 2, "recovery_tables": 2},
        "pretrain_long": {"tables": 6, "epochs": 3, "recovery_tables": 1},
        "tasks": {
            "tables": 40,
            "base_epochs": 1,
            "epochs": {"coltype": 1, "relations": 1, "linking": 1, "rowpop": 1, "schema": 1},
            "instances": INSTANCES,
            "recovery_tables": 1,
        },
    },
}


# The speed probe: a fixed piece of numpy and Python work that does not depend
# on the program under test. Other load on a shared host changes the speed of
# this machine by up to two times over seconds to minutes. The probe runs at
# the phase boundaries of every round, tracks that speed, and the timings are
# scaled by it (`StepClock.scaled`). Its mix (many small numpy ops, a dict
# loop, building and sorting small Python objects) was chosen because its
# time moves with the program's per-op-overhead-bound time by a factor close
# to one (see the README, "Noise").
_PROBE_M = np.random.default_rng(20).standard_normal((48, 48))
# The probe's median time on the reference machine (a 2-vCPU Xeon at 2.0 GHz
# in a quiet stretch); scaled timings read as on that machine at that speed.
REF_PROBE_S = 0.0012
# How far each workload's time moves per relative change of the probe's time,
# in log terms, as fitted on the reference machine (see the README, "Noise").
ELASTICITY = {"pretrain_small": 1.0, "pretrain_long": 0.85, "tasks": 0.75}


def speed_factor(probes: list[float], elasticity: float) -> float:
    """Factor that scales a time measured next to `probes` to reference speed."""
    return (REF_PROBE_S / statistics.median(probes)) ** elasticity


def probe() -> float:
    """Run the probe once; return its wall time in seconds."""
    t = time.perf_counter()
    x = _PROBE_M
    for _ in range(36):
        y = np.tanh((x @ _PROBE_M) * 0.01)
        x = y / (1.0 + np.abs(y).sum(axis=1, keepdims=True))
    counts: dict[int, int] = {}
    for i in range(1000):
        counts[i % 37] = counts.get(i % 37, 0) + i
    rows = [(i * 7919 % 1000, str(i), {"i": i}) for i in range(750)]
    rows.sort(key=lambda r: r[0])
    return time.perf_counter() - t


class StepClock:
    """Optimizer step times and phase boundaries, with the speed probe.

    Wraps `numeric.Adam.step` to take one timestamp after each step, with no
    other probe. `mark()` starts a new phase (a training call, the evaluation,
    a set-up): it runs the speed probe `BURST` times, so an interval never
    spans two training calls and the first step of a call (which also pays
    for model set-up) is not counted. The probe runs only at these phase
    boundaries, because probing between steps would also slow the steps.
    `now()` is a clock that stops while the probe runs, so no timing includes
    probe time.
    """

    BURST = 10

    def __init__(self, numeric_module, elasticity: float = 1.0):
        self._elasticity = elasticity
        self._cls = numeric_module.Adam
        self._orig = self._cls.__dict__["step"]
        self._last = None
        self._probing_s = 0.0
        self.steps: list[tuple[float, float]] = []  # clock times of each timed step
        self.marks: list[tuple[float, list[float]]] = []  # clock time and probe times

    def now(self) -> float:
        return time.perf_counter() - self._probing_s

    def mark(self) -> None:
        at, burst = self.now(), []
        for _ in range(self.BURST):
            burst.append(probe())
            self._probing_s += burst[-1]
        self.marks.append((at, burst))
        self._last = None

    def factor(self) -> float:
        """The speed factor over all of this clock's probes."""
        return speed_factor([t for _, burst in self.marks for t in burst], self._elasticity)

    def scaled(self, a: float, b: float) -> float:
        """Seconds from clock time `a` to `b` at reference speed. Each phase
        between two marks is scaled by `speed_factor` of both marks' probe
        times; time before the first mark or after the last counts at the
        speed of the nearest phase."""
        if len(self.marks) < 2:
            raise ValueError("scaling needs at least two marks")
        factors = [speed_factor(p + q, self._elasticity) for (_, p), (_, q) in zip(self.marks, self.marks[1:])]
        edges = [-math.inf] + [at for at, _ in self.marks[1:-1]] + [math.inf]
        return sum(f * max(0.0, min(b, hi) - max(a, lo)) for f, lo, hi in zip(factors, edges, edges[1:]))

    def __enter__(self) -> "StepClock":
        clock, orig = self, self._orig

        def step(opt):
            orig(opt)
            now = clock.now()
            if clock._last is not None:
                clock.steps.append((clock._last, now))
            clock._last = now

        self._cls.step = step
        return self

    def __exit__(self, *exc) -> None:
        self._cls.step = self._orig


class NoClock:
    """Stand-in used by traced rounds, which report no step times and run no
    probe."""

    now = staticmethod(time.perf_counter)

    def mark(self) -> None:
        pass


@dataclass
class Data:
    packs: list
    indexed: list
    token_vocab: object
    entity_vocab: object
    index: object
    max_len: int
    world: object = None


@dataclass
class Round:
    """One round's results. Times are (start, end) pairs of the clock."""

    wall: tuple[float, float]
    train_items: int
    train: tuple[float, float]
    eval_items: int
    evaluation: tuple[float, float]
    quality: dict
    losses: list[float]
    attempted: int
    extra: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.wall[1] - self.wall[0]


def prepare(raws: list[dict], max_len: int, world=None) -> Data:
    """parse -> process_table -> pretrain_ok -> build_vocabs -> pack -> index."""
    processed = [corpus.process_table(corpus.parse_raw(r)) for r in raws]
    processed = [p for p in processed if corpus.pretrain_ok(p)]
    tv, ev = corpus.build_vocabs(processed, min_token_count=1, min_entity_count=1)
    packs = tasks.pack_tables(processed, tv, ev, max_len)
    indexed = [p.indexed for p in packs]
    index = baselines.CorpusIndex.build(indexed, tv.strings)
    return Data(packs, indexed, tv, ev, index, max_len, world)


def _cell_count(tables, max_len: int) -> int:
    return sum(len(encoding.linearize(t, max_len).cell_indices()) for t in tables)


def pick_by_size(tables: list, n: int) -> list:
    """n tables at evenly spaced ranks of cell count, so that the evaluated
    amount of work barely depends on the seed."""
    ranked = sorted(tables, key=lambda t: (len(t.cells), t.table_id))
    return [ranked[(2 * i + 1) * len(ranked) // (2 * n)] for i in range(n)]


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# pre-training workloads


def long_corpus(seed: int, n_tables: int) -> tuple[list[dict], synth.World]:
    """Tables of 4 to 50 rows over the tasks schemas, with their extra columns.

    `synth.make_corpus` fixes rows at 3 to 6, so the rows are built here from
    the public attributes of `synth.World`. Row counts and schemas form a
    fixed ladder that only the table order depends on, so every seed asks for
    the same amount of work; the seed picks the order, people, leagues,
    captions and values.
    """
    world = synth.World(seed, n_people=96)
    rng = np.random.default_rng(seed + 1)
    n_leagues = 4
    ladder = []
    for i, n_rows in enumerate(np.linspace(4, 50, n_tables).round().astype(int)):
        schema = "C" if n_rows <= len(world.clubs) and i % 2 == 0 else "B" if i % 3 == 2 else "A"
        ladder.append((schema, int(n_rows)))
    tables = []
    for t, k in enumerate(rng.permutation(len(ladder))):
        schema, n_rows = ladder[int(k)]
        li = int(rng.integers(n_leagues))
        if schema == "C":
            pool = list(world.clubs)
            headers = ["club", "arena city"]
            row = lambda s: [world.club_city[s]]
        else:
            pool = [p for p in world.people if world.league_of[p] == li]
            if len(pool) < n_rows:
                pool = list(world.people)
            if schema == "A":
                headers = ["player", "debut", "home town"]
                row = lambda s: [world.debut[s], world.home_city[s]]
            else:
                headers = ["player", "club"]
                row = lambda s: [world.club_of[s]]
        subjects = [pool[int(i)] for i in rng.permutation(len(pool))[:n_rows]]
        extras = world.extras[(li, schema)]
        rows = []
        for s in subjects:
            cells = [{"text": world.names[ref], "entity": ref} for ref in [s] + row(s)]
            rows.append(cells + [str(int(rng.integers(1, 60))) for _ in extras])
        league = world.league_tokens(li)
        record = {
            "table_id": f"L{t:04d}",
            "page_title": f"list of {league} players",
            "section_title": "",
            "caption": f"{league} roster {t}",
            "headers": headers + list(extras),
            "rows": rows,
        }
        if rng.random() < 0.5:
            record["page_entity"] = {"entity": f"league_{li}", "text": league}
        tables.append(record)
    return tables, world


@dataclass
class PretrainState:
    data: Data
    cfg: encoder.EncoderConfig
    settings: pretrain.TrainSettings
    recovery: list
    recovery_cells: list[int]


def _pretrain_state(data: Data, d_model: int, n_heads: int, d_int: int, epochs: int, n_recovery: int):
    cfg = encoder.EncoderConfig(
        n_blocks=2, d_model=d_model, n_heads=n_heads, d_intermediate=d_int, max_len=data.max_len,
        n_tokens=len(data.token_vocab), n_entities=len(data.entity_vocab),
    )
    settings = pretrain.TrainSettings(
        mlm_ratio=0.2, mer_ratio=0.6, lr0=1e-3, epochs=epochs, batch_size=8,
        candidate_cap=64, use_visibility=True, seed=13,
    )
    recovery = pick_by_size(data.indexed, n_recovery)
    return PretrainState(data, cfg, settings, recovery, [_cell_count([t], data.max_len) for t in recovery])


def prepare_pretrain_small(seed: int, size: dict) -> Data:
    raws, _ = synth.make_corpus(seed, size["tables"], "memorize")
    return prepare(raws, max_len=64)


def finish_pretrain_small(data: Data, size: dict, scratch: str) -> PretrainState:
    return _pretrain_state(data, 64, 4, 128, size["epochs"], size["recovery_tables"])


def prepare_pretrain_long(seed: int, size: dict) -> Data:
    raws, world = long_corpus(seed, size["tables"])
    return prepare(raws, max_len=256, world=world)


def finish_pretrain_long(data: Data, size: dict, scratch: str) -> PretrainState:
    return _pretrain_state(data, 128, 4, 256, size["epochs"], size["recovery_tables"])


def run_pretrain_round(state: PretrainState, clock) -> Round:
    data, s = state.data, state.settings
    clock.mark()
    t0 = clock.now()
    model, history = pretrain.fit(data.indexed, state.cfg, s, data.index.cooccur)
    t1 = clock.now()
    clock.mark()
    t2 = clock.now()
    correct = 0
    for table, n_cells in zip(state.recovery, state.recovery_cells):
        acc = pretrain.masked_recovery_accuracy(model, [table], data.index.cooccur, cap=s.candidate_cap, seed=1)
        correct += round(acc * n_cells)
    t3 = clock.now()
    clock.mark()
    n_cells = sum(state.recovery_cells)
    n_train = s.epochs * len(data.indexed)
    losses = list(history.step_losses) + [r["loss"] for r in history.epochs]
    return Round(
        wall=(t0, t3),
        train_items=n_train,
        train=(t0, t1),
        eval_items=n_cells,
        evaluation=(t2, t3),
        quality={"recovery_acc": correct / n_cells},
        losses=losses,
        attempted=n_train + n_cells,
        extra={"loss_final": history.epochs[-1]["loss"]},
    )


# ---------------------------------------------------------------------------
# tasks workload


def world_side(world) -> tasks.SideData:
    """Side files (types, relations, kb, lookup) held in memory."""
    side = tasks.SideData()
    side.types = world.entity_types()
    for rec in world.relations():
        side.relations.setdefault((rec["subject"], rec["object"]), set()).update(rec["relations"])
    for rec in world.kb_entries():
        side.kb[rec["entity"]] = tasks.KbEntry(name=rec["name"], description=rec["description"], types=rec["types"])
    for rec in world.candidate_lookup(np.random.default_rng(7)):
        side.candidates[rec["mention"]] = rec["candidates"]
    return side


@dataclass
class TasksState:
    data: Data
    side: tasks.SideData
    base: encoder.Model
    base_loss: float
    epochs: dict
    recovery: list
    recovery_cells: int
    scratch: str
    instances: dict


def prepare_tasks(seed: int, size: dict) -> Data:
    raws, world = synth.make_corpus(seed, size["tables"], "tasks")
    return prepare(raws, max_len=96, world=world)


def finish_tasks(data: Data, size: dict, scratch: str) -> TasksState:
    """Pre-train the d=32 base model that every task head starts from."""
    cfg = encoder.EncoderConfig(
        n_blocks=2, d_model=32, n_heads=4, d_intermediate=64, max_len=96,
        n_tokens=len(data.token_vocab), n_entities=len(data.entity_vocab),
    )
    settings = pretrain.TrainSettings(
        mlm_ratio=0.2, mer_ratio=0.6, lr0=1e-3, epochs=size["base_epochs"], batch_size=8,
        candidate_cap=64, use_visibility=True, seed=17,
    )
    base, history = pretrain.fit(data.indexed, cfg, settings, data.index.cooccur)
    if not _finite(history.step_losses):
        raise ValueError("base pre-training produced a non-finite loss")
    recovery = pick_by_size(data.indexed, size["recovery_tables"])
    return TasksState(
        data, world_side(data.world), base, history.epochs[-1]["loss"], dict(size["epochs"]),
        recovery, _cell_count(recovery, data.max_len), scratch, dict(size["instances"]),
    )


def clone_model(model: encoder.Model) -> encoder.Model:
    out = encoder.init_model(model.cfg, np.random.default_rng(0), dtype=model.dtype)
    for name, arr in model.named_arrays().items():
        out.weights[name].data[...] = arr
    return out


def run_tasks_round(state: TasksState, clock) -> Round:
    T = tasks
    data, side, base = state.data, state.side, state.base
    packs, tv, ev, index, max_len = data.packs, data.token_vocab, data.entity_vocab, data.index, data.max_len
    d = base.cfg.d_model
    ep = state.epochs

    def settings(task):
        return T.FinetuneSettings(lr0=1e-3, epochs=ep[task], batch_size=8, seed=3)

    tokenizer = corpus.WordTokenizer()
    losses: list[float] = []
    clock.mark()
    t_start = clock.now()

    # Instances (row population runs BM25 retrieval here).
    ct_inst, types = T.build_column_type_data(packs, ev, side)
    re_inst, rels = T.build_relation_data(packs, ev, side)
    kb_types = sorted({t for e in side.kb.values() for t in e.types})
    el_train = T.build_linking_data(packs, side, require_gold=True)
    el_eval = T.build_linking_data(packs, side, require_gold=False)
    rp_inst = T.build_row_population_data(packs, index, tv, n_seeds=1, retrieval_k=100)
    headers = T.header_vocabulary(packs, min_tables=4)
    sa_inst = T.build_schema_data(packs, headers, n_seeds=1)
    cf_inst = T.build_fill_data(packs, index)
    cap = state.instances
    ct_inst, re_inst, cf_inst = ct_inst[: cap["coltype"]], re_inst[: cap["relations"]], cf_inst[: cap["fill"]]
    el_train, el_eval = el_train[: cap["linking"]], el_eval[: cap["linking"]]
    t_built = clock.now()

    # Fine-tuning, each head on its own clone of the base model.
    models = {}
    clock.mark()
    m, h = clone_model(base), T.ColumnTypeHead(d, len(types), np.random.default_rng(11))
    losses += T.train_column_types(m, h, packs, ct_inst, settings("coltype"), len(types))
    models["coltype"] = (m, h)
    clock.mark()
    m, h = clone_model(base), T.RelationHead(d, len(rels), np.random.default_rng(12))
    losses += T.train_relations(m, h, packs, re_inst, settings("relations"), len(rels))
    models["relations"] = (m, h)
    clock.mark()
    m, h = clone_model(base), T.LinkingHead(d, kb_types, np.random.default_rng(14))
    losses += T.train_linking(m, h, packs, el_train, side, tv, tokenizer, settings("linking"))
    models["linking"] = (m, h)
    clock.mark()
    m = clone_model(base)
    losses += T.train_row_population(m, packs, rp_inst, settings("rowpop"), max_len)
    models["rowpop"] = (m, None)
    clock.mark()
    m, h = clone_model(base), T.SchemaHead(d, len(headers), np.random.default_rng(13))
    losses += T.train_schema(m, h, packs, sa_inst, headers, tv, settings("schema"), max_len)
    models["schema"] = (m, h)
    t_trained = clock.now()

    # One checkpoint round trip; the schema model is evaluated from it.
    m, h = models["schema"]
    arrays = dict(m.named_arrays())
    arrays.update({"head." + p.name: p.data for p in h.params()})
    path = os.path.join(state.scratch, "schema_checkpoint.bin")
    store.save_checkpoint(path, arrays, "seed = 3\n", step=len(losses), extra={"task": "schema"})
    loaded, _, _, _ = store.load_checkpoint(path)
    if set(loaded) != set(arrays) or any(loaded[k].tobytes() != v.tobytes() for k, v in arrays.items()):
        raise ValueError("checkpoint did not round-trip bitwise")
    restored = encoder.init_model(base.cfg, np.random.default_rng(0), dtype=base.dtype)
    restored.load_arrays({k: v for k, v in loaded.items() if not k.startswith("head.")})
    for p in h.params():
        p.data[...] = loaded["head." + p.name]
    models["schema"] = (restored, h)

    # Evaluation of all six tasks, masked recovery and the baselines.
    clock.mark()
    t_eval = clock.now()
    res = {}
    m, h = models["coltype"]
    res["coltype"] = T.eval_column_types(m, h, packs, ct_inst)
    m, h = models["relations"]
    res["relations"] = T.eval_relations(m, h, packs, re_inst)
    m, h = models["linking"]
    res["linking"] = T.eval_linking(m, h, packs, el_eval, side, tv, tokenizer)
    m, _ = models["rowpop"]
    res["rowpop"] = T.eval_row_population(m, packs, rp_inst, max_len)
    res["fill"] = T.eval_cell_filling(base, packs, cf_inst)
    m, h = models["schema"]
    res["schema"] = T.eval_schema(m, h, packs, sa_inst, headers, tv, max_len)
    res["lookup"] = T.eval_linking_lookup(el_eval)
    res["votes"] = T.eval_relations_votes(re_inst, ev, side, rels, threshold=0.5)
    res["fill_exact"] = T.eval_cell_filling_baseline(index, packs, cf_inst, "exact")
    res["fill_pair"] = T.eval_cell_filling_baseline(index, packs, cf_inst, "pair")
    res["caption"] = T.eval_schema_baseline(index, packs, sa_inst, tv)
    recovery = pretrain.masked_recovery_accuracy(base, state.recovery, index.cooccur, cap=64, seed=1)
    t_end = clock.now()
    clock.mark()

    quality = {
        "coltype_f1": res["coltype"]["metrics"]["f1"],
        "relations_f1": res["relations"]["metrics"]["f1"],
        "linking_f1": res["linking"]["metrics"]["f1"],
        "rowpop_map": res["rowpop"]["metrics"]["map"],
        "fill_p1": res["fill"]["metrics"]["p_at_1"],
        "schema_map": res["schema"]["metrics"]["map"],
        "recovery_acc": recovery,
        "lookup_f1": res["lookup"]["metrics"]["f1"],
        "votes_f1": res["votes"]["metrics"]["f1"],
        "fill_exact_p1": res["fill_exact"]["metrics"]["p_at_1"],
        "fill_pair_p1": res["fill_pair"]["metrics"]["p_at_1"],
        "caption_map": res["caption"]["metrics"]["map"],
    }
    n_train = (
        ep["coltype"] * len(ct_inst)
        + ep["relations"] * len(re_inst)
        + ep["linking"] * len(el_train)
        + ep["rowpop"] * len(rp_inst)
        + ep["schema"] * len(sa_inst)
    )
    n_eval = sum(r["n_instances"] for r in res.values()) + state.recovery_cells
    return Round(
        wall=(t_start, t_end),
        train_items=n_train,
        train=(t_built, t_trained),
        eval_items=n_eval,
        evaluation=(t_eval, t_end),
        quality=quality,
        losses=losses,
        attempted=n_train + n_eval,
        extra={"loss_final": state.base_loss, "instances": {k: r["n_instances"] for k, r in res.items()}},
    )


# name -> (prepare, finish, run_round)
REGISTRY = {
    "pretrain_small": (prepare_pretrain_small, finish_pretrain_small, run_pretrain_round),
    "pretrain_long": (prepare_pretrain_long, finish_pretrain_long, run_pretrain_round),
    "tasks": (prepare_tasks, finish_tasks, run_tasks_round),
}
