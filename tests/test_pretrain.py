"""Masking plans, candidate sets, and the pre-training loop."""

import dataclasses

import numpy as np
import pytest

import tabrep.numeric as nm
from tabrep import encoder, pretrain
from tabrep.corpus import MASK_ID, build_vocabs, index_table, parse_raw, pretrain_ok, process_table
from tabrep.encoder import EncoderConfig, encode, init_model
from tabrep.encoding import CAPTION, CELL, TOPIC, linearize, mask_cell
from tabrep.errors import ConfigError, NonFiniteLoss, ShapeMismatch, UnknownId
from tabrep.pretrain import (
    KEEP,
    MASK_BOTH,
    MASK_EMB,
    RANDOM_EMB,
    N_RESERVED_ENTITIES,
    N_RESERVED_TOKENS,
    CellMaskPlan,
    MaskedTable,
    TrainSettings,
    apply_masks,
    build_candidates,
    canonical_mentions,
    entity_logits,
    fit,
    masked_recovery_accuracy,
    sample_cell_mask,
    sample_token_mask,
    table_loss,
    token_logits,
)
from tabrep.synth import make_corpus

from conftest import make_indexed_table


def token_heavy_seq(rng, n_tokens=400):
    t = make_indexed_table(rng, 1, 1, caption_len=n_tokens)
    return linearize(t, max_len=n_tokens + 16)


def cell_heavy_seq(rng, n_cells=400):
    t = make_indexed_table(rng, n_cells, 1, caption_len=1)
    return linearize(t, max_len=n_cells + 16)


def test_token_plan_respects_ratio_and_branches():
    rng = np.random.default_rng(0)
    seq = token_heavy_seq(rng)
    total = selected = masked = randomized = kept = 0
    for _ in range(200):
        plan = sample_token_mask(rng, seq, ratio=0.2, n_tokens=40)
        total += len(seq.token_indices)
        selected += len(plan.indices)
        masked += int((plan.replacements == MASK_ID).sum())
        same = plan.replacements == plan.targets
        kept += int(same.sum())
        randomized += int((~same & (plan.replacements != MASK_ID)).sum())
    assert abs(selected / total - 0.2) < 0.01
    assert abs(masked / selected - 0.8) < 0.02
    assert abs(randomized / selected - 0.1) < 0.02
    assert abs(kept / selected - 0.1) < 0.02


def test_token_plan_random_replacements_avoid_reserved_ids():
    rng = np.random.default_rng(1)
    seq = token_heavy_seq(rng)
    for _ in range(50):
        plan = sample_token_mask(rng, seq, ratio=0.5, n_tokens=40)
        rand = plan.replacements[(plan.replacements != MASK_ID) & (plan.replacements != plan.targets)]
        assert (rand >= N_RESERVED_TOKENS).all()


def test_cell_plan_action_split():
    rng = np.random.default_rng(2)
    seq = cell_heavy_seq(rng)
    counts = {KEEP: 0, MASK_BOTH: 0, MASK_EMB: 0, RANDOM_EMB: 0}
    selected = total = 0
    for _ in range(250):
        plan = sample_cell_mask(rng, seq, ratio=0.6, n_entities=30)
        total += len(seq.cell_indices())
        selected += len(plan.indices)
        for a in plan.actions:
            counts[int(a)] += 1
    assert abs(selected / total - 0.6) < 0.01
    assert abs(counts[KEEP] / selected - 0.10) < 0.01
    assert abs(counts[MASK_BOTH] / selected - 0.63) < 0.015
    combined = (counts[MASK_EMB] + counts[RANDOM_EMB]) / selected
    assert abs(combined - 0.27) < 0.015
    assert abs(counts[RANDOM_EMB] / selected - 0.027) < 0.006


def test_cell_plan_skips_topic_entity():
    rng = np.random.default_rng(3)
    t = make_indexed_table(rng, 2, 2, with_topic=True)
    seq = linearize(t)
    topic_pos = {i for i in range(len(seq)) if seq.kinds[i] == TOPIC}
    for _ in range(50):
        plan = sample_cell_mask(rng, seq, ratio=1.0, n_entities=30)
        assert topic_pos.isdisjoint(int(i) for i in plan.indices)
        assert len(plan.indices) == len(seq.cell_indices())


def test_apply_masks_actions():
    rng = np.random.default_rng(4)
    t = make_indexed_table(rng, 2, 2)
    seq = linearize(t)
    cells = [int(i) for i in seq.cell_indices()]
    plan = CellMaskPlan(
        indices=np.array(cells[:4], dtype=np.int64),
        targets=np.array([seq.ids[i] for i in cells[:4]], dtype=np.int64),
        actions=np.array([KEEP, MASK_BOTH, MASK_EMB, RANDOM_EMB], dtype=np.int64),
    )
    out = apply_masks(seq, None, plan, rng=np.random.default_rng(5), n_entities=30)

    kept = cells[0]
    assert out.ids[kept] == seq.ids[kept]
    np.testing.assert_array_equal(out.mentions[kept], seq.mentions[kept])

    both = cells[1]
    assert out.ids[both] == MASK_ID and list(out.mentions[both]) == [MASK_ID]

    emb_only = cells[2]
    assert out.ids[emb_only] == MASK_ID
    np.testing.assert_array_equal(out.mentions[emb_only], seq.mentions[emb_only])

    rand = cells[3]
    # the only rng draw in the plan is the one replacement id
    assert out.ids[rand] == int(np.random.default_rng(5).integers(N_RESERVED_ENTITIES, 30))
    assert N_RESERVED_ENTITIES <= out.ids[rand] < 30
    np.testing.assert_array_equal(out.mentions[rand], seq.mentions[rand])

    # the source sequence is never mutated
    assert seq.ids[cells[1]] != MASK_ID


def test_token_masks_leave_entities_alone():
    rng = np.random.default_rng(5)
    t = make_indexed_table(rng, 2, 2, with_topic=True)
    seq = linearize(t)
    plan = sample_token_mask(rng, seq, ratio=1.0, n_tokens=40)
    ent = set(int(i) for i in np.flatnonzero(seq.is_entity))
    assert ent.isdisjoint(int(i) for i in plan.indices)


# -- candidates -------------------------------------------------------------------


def test_candidates_contain_golds_sorted_unique():
    rng = np.random.default_rng(6)
    table_entities = np.array([5, 9, 12])
    golds = np.array([9, 25])
    cooccur = {5: {14, 15}, 9: {16}}
    cands = build_candidates(table_entities, golds, cooccur, n_entities=30, cap=8, rng=rng)
    assert set(golds).issubset(set(cands.tolist()))
    assert list(cands) == sorted(set(cands.tolist()))
    assert len(cands) <= 8
    assert (cands >= N_RESERVED_ENTITIES).all()


def test_candidates_top_up_with_negatives():
    rng = np.random.default_rng(7)
    cands = build_candidates(np.array([5]), np.array([5]), {}, n_entities=30, cap=10, rng=rng)
    assert len(cands) == 10
    assert 5 in cands


def test_candidates_cap_never_evicts_golds():
    rng = np.random.default_rng(8)
    cooccur = {5: set(range(3, 30))}
    golds = np.array([28, 29])
    cands = build_candidates(np.array([5]), golds, cooccur, n_entities=30, cap=5, rng=rng)
    assert len(cands) == 5
    assert set(golds).issubset(set(cands.tolist()))


def test_candidates_exclude_reserved_rows():
    rng = np.random.default_rng(9)
    cooccur = {5: {0, 1, 2, 7}}
    cands = build_candidates(np.array([5]), np.array([5]), cooccur, n_entities=9, cap=6, rng=rng)
    assert (cands >= N_RESERVED_ENTITIES).all()


@pytest.mark.parametrize(
    "entities, golds, cooccur, n_entities, cap",
    [
        (np.array([5, 9, 12]), np.array([9, 25]), {5: {14, 15}, 9: {16}}, 30, 5),  # capped
        (np.array([5]), np.array([5]), {}, 30, 10),  # topped up
        (np.array([5, 7]), np.array([1, 7]), {5: {0, 1, 2, 7}}, 9, 6),  # reserved ids
        (np.array([3, 4]), np.array([4]), {3: {5}}, 30, 3),  # exactly full
    ],
)
def test_candidates_from_a_precomputed_pool_match_building_from_scratch(entities, golds, cooccur, n_entities, cap):
    pool = pretrain.candidate_pool(entities, cooccur)
    kept = set(pool)
    scratch, pooled = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(3):
        want = build_candidates(entities, golds, cooccur, n_entities, cap, scratch)
        got = build_candidates(entities, golds, cooccur, n_entities, cap, pooled, pool=pool)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert pooled.bit_generator.state == scratch.bit_generator.state
    assert pool == kept


# -- the batch loss ------------------------------------------------------------------


def masked_batch(n_tables, seed=30, cfg=None):
    cfg = cfg or SMALL_CFG
    rng = np.random.default_rng(seed)
    batch = []
    while len(batch) < n_tables:
        t = make_indexed_table(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)), n_tokens=30, n_entities=20,
                               table_id=f"t{len(batch)}")
        seq = linearize(t, cfg.max_len)
        tok = sample_token_mask(rng, seq, 0.4, cfg.n_tokens)
        cell = sample_cell_mask(rng, seq, 0.6, cfg.n_entities)
        if len(tok.indices) or len(cell.indices):
            cands = build_candidates(t.entity_ids(), cell.targets, {}, cfg.n_entities, 8, rng)
            batch.append(MaskedTable(apply_masks(seq, tok, cell, rng, cfg.n_entities), tok, cell, cands))
    return batch


def reference_table_loss(model, batch):
    # the token head over the whole batch, then one entity head per table
    h = encode([m.seq for m in batch], model).h
    starts = np.cumsum([0] + [len(m.seq) for m in batch[:-1]])
    tok_pos = np.concatenate([m.tokens.indices + s for m, s in zip(batch, starts)])
    targets = np.concatenate([m.tokens.targets for m in batch])
    logits = token_logits(model, h, tok_pos)
    mlm = float(nm.cross_entropy_sum(logits, targets).data)
    stats = dict(n_tokens=len(tok_pos), token_correct=int((logits.data.argmax(axis=1) == targets).sum()))
    mer, n_cells, correct = 0.0, 0, 0
    for m, s in zip(batch, starts):
        if len(m.cells.indices):
            gold = np.searchsorted(m.candidates, m.cells.targets)
            logits = entity_logits(model, h, m.cells.indices + s, m.candidates)
            mer += float(nm.cross_entropy_sum(logits, gold).data)
            n_cells += len(gold)
            correct += int((logits.data.argmax(axis=1) == gold).sum())
    return mlm, mer, dict(stats, n_cells=n_cells, cell_correct=correct)


def test_table_loss_equals_a_per_table_reference():
    model, _ = small_fit(epochs=2)
    batch = masked_batch(6)
    assert sum(len(m.cells.indices) == 0 for m in batch) and sum(len(m.cells.indices) > 0 for m in batch) > 2
    total, stats = table_loss(model, batch)
    mlm, mer, ref_stats = reference_table_loss(model, batch)
    assert float(total.data) == pytest.approx(mlm + mer, rel=1e-6)
    assert stats.mlm_loss == pytest.approx(mlm, rel=1e-6) and stats.mer_loss == pytest.approx(mer, rel=1e-6)
    assert {k: getattr(stats, k) for k in ref_stats} == ref_stats


def test_table_loss_terms_add_up_to_the_step_loss():
    model = init_model(SMALL_CFG, np.random.default_rng(1))
    for seed in range(5):
        total, stats = table_loss(model, masked_batch(4, seed=seed))
        assert stats.n_tokens and stats.n_cells
        assert stats.mlm_loss + stats.mer_loss == pytest.approx(float(total.data), rel=1e-6)
    _, history = small_fit(epochs=2)
    for rec in history.epochs:
        assert rec["mlm_loss"] > 0 and rec["mer_loss"] > 0


def test_table_loss_builds_the_same_nodes_for_any_batch_size():
    model = init_model(SMALL_CFG, np.random.default_rng(2))
    counts = []
    for n in (2, 8):
        batch = masked_batch(n, seed=40 + n)
        assert sum(len(m.tokens.indices) > 0 for m in batch) and sum(len(m.cells.indices) > 0 for m in batch)
        total, _ = table_loss(model, batch)
        counts.append(sum(node._backward is not None for node in nm._topo_order(total)))
    assert counts[0] == counts[1]


def memorize_tables(seed, n_tables):
    processed = [process_table(parse_raw(r)) for r in make_corpus(seed, n_tables, "memorize")[0]]
    processed = [p for p in processed if pretrain_ok(p)]
    tv, ev = build_vocabs(processed, min_token_count=1, min_entity_count=1)
    return [index_table(p, tv, ev) for p in processed], len(tv), len(ev)


@pytest.mark.parametrize("shape", ["short_tables", "long_tables"])
def test_every_fit_step_has_49_op_nodes(monkeypatch, shape):
    # the tables of the two pre-training benchmarks: 50 memorize tables of
    # about 29 elements, and 24 tables of 4 to 50 rows
    if shape == "short_tables":
        tables, n_tokens, n_entities = memorize_tables(3, 50)
    else:
        rng = np.random.default_rng(12)
        n_rows = np.linspace(4, 50, 24).round().astype(int)
        tables = [make_indexed_table(rng, int(r), 3, table_id=f"L{i}") for i, r in enumerate(n_rows)]
        n_tokens, n_entities = 40, 30
    cfg = EncoderConfig(
        n_blocks=2, d_model=16, n_heads=4, d_intermediate=32, max_len=256, n_tokens=n_tokens, n_entities=n_entities
    )
    settings = TrainSettings(mlm_ratio=0.2, mer_ratio=0.6, lr0=1e-3, epochs=1, batch_size=8, candidate_cap=64)
    counts = []
    descend = nm.descend

    def counting(loss, opt, where):
        counts.append(sum(node._backward is not None for node in nm._topo_order(loss)))
        return descend(loss, opt, where)

    monkeypatch.setattr(nm, "descend", counting)
    fit(tables, cfg, settings, cooccur={})
    assert len(counts) == -(-len(tables) // 8)
    assert set(counts) == {49}


def test_table_loss_rejects_a_gold_outside_its_candidates():
    # a cell whose entity is a reserved row (here <mask>) is dropped by
    # build_candidates; its gold must raise, not silently pick a candidate
    model = init_model(SMALL_CFG, np.random.default_rng(3))
    t = make_indexed_table(np.random.default_rng(4), 3, 2, n_tokens=30, n_entities=20)
    t.cells[2].entity_id = MASK_ID
    seq = linearize(t, SMALL_CFG.max_len)
    pos = np.flatnonzero((seq.kinds == CELL) & (seq.ids == MASK_ID))
    cell = CellMaskPlan(indices=pos, targets=seq.ids[pos], actions=np.full(len(pos), MASK_BOTH))
    tok = sample_token_mask(np.random.default_rng(5), seq, 0.0, SMALL_CFG.n_tokens)
    cands = build_candidates(t.entity_ids(), cell.targets, {}, SMALL_CFG.n_entities, 8, np.random.default_rng(6))
    assert MASK_ID not in cands
    with pytest.raises(UnknownId):
        table_loss(model, [MaskedTable(apply_masks(seq, tok, cell), tok, cell, cands)])


# -- canonical mentions --------------------------------------------------------------


def test_canonical_mentions_majority_then_lexical():
    rng = np.random.default_rng(10)
    a = make_indexed_table(rng, 1, 1)
    a.cells[0].entity_id = 7
    a.cells[0].mention_ids = np.array([9, 9])
    b = make_indexed_table(rng, 1, 1)
    b.cells[0].entity_id = 7
    b.cells[0].mention_ids = np.array([9, 9])
    c = make_indexed_table(rng, 1, 1)
    c.cells[0].entity_id = 7
    c.cells[0].mention_ids = np.array([4])
    out = canonical_mentions([a, b, c])
    assert list(out[7]) == [9, 9]  # majority wins

    d = make_indexed_table(rng, 1, 1)
    d.cells[0].entity_id = 8
    d.cells[0].mention_ids = np.array([6])
    e = make_indexed_table(rng, 1, 1)
    e.cells[0].entity_id = 8
    e.cells[0].mention_ids = np.array([5])
    out = canonical_mentions([d, e])
    assert list(out[8]) == [5]  # tie breaks to the smaller tuple


def canonical_mentions_by_element(tables):
    # the per-element form: one int() per mention token
    counts = {}
    for t in tables:
        seen = [(c.entity_id, tuple(int(x) for x in c.mention_ids)) for c in t.cells]
        if t.topic is not None:
            seen.append((t.topic[0], tuple(int(x) for x in t.topic[1])))
        for eid, ment in seen:
            if ment:
                counts.setdefault(eid, {})
                counts[eid][ment] = counts[eid].get(ment, 0) + 1
    return {eid: np.array(min(m.items(), key=lambda kv: (-kv[1], kv[0]))[0], dtype=np.int64) for eid, m in counts.items()}


def test_canonical_mentions_equal_the_per_element_form():
    rng = np.random.default_rng(14)
    # few entities and tokens, so that entities recur with rival mentions
    tables = [make_indexed_table(rng, 4, 3, n_tokens=12, n_entities=8, with_topic=bool(i % 2)) for i in range(6)]
    for t in tables[::2]:  # empty mentions, of cells and of a topic
        t.cells[0].mention_ids = np.zeros(0, dtype=np.int64)
    tables[1].topic = (tables[1].topic[0], np.zeros(0, dtype=np.int64))
    want, got = canonical_mentions_by_element(tables), canonical_mentions(tables)
    assert got.keys() == want.keys()
    assert all(got[e].dtype == np.int64 and np.array_equal(got[e], want[e]) for e in want)


# -- training loop --------------------------------------------------------------------


SMALL_CFG = EncoderConfig(n_blocks=1, d_model=8, n_heads=2, d_intermediate=16, max_len=64, n_tokens=30, n_entities=20)


def small_fit(seed=13, epochs=2, max_steps=None, use_visibility=True, mlm_ratio=0.3, mer_ratio=0.6, model=None):
    rng = np.random.default_rng(100)
    tables = [make_indexed_table(rng, 3, 2, n_tokens=30, n_entities=20, table_id=f"t{i}") for i in range(6)]
    settings = TrainSettings(
        mlm_ratio=mlm_ratio, mer_ratio=mer_ratio, lr0=1e-3, epochs=epochs, batch_size=3, candidate_cap=16,
        use_visibility=use_visibility, seed=seed,
    )
    return fit(tables, SMALL_CFG, settings, cooccur={}, max_steps=max_steps, model=model)


def test_fit_gives_the_model_the_attention_mode_of_its_settings():
    model, _ = small_fit(epochs=1, use_visibility=False)
    assert model.use_visibility is False
    again, _ = small_fit(epochs=1, model=model)  # a model it is given takes the mode too
    assert again is model and model.use_visibility is True


def test_fit_refuses_a_model_built_from_another_config():
    # fit linearizes and draws ids from encoder_cfg, so a model of other sizes would train on truncated tables
    model, _ = small_fit(epochs=1)
    before = {k: v.copy() for k, v in model.named_arrays().items()}
    rng = np.random.default_rng(100)
    tables = [make_indexed_table(rng, 3, 2, n_tokens=30, n_entities=20, table_id=f"t{i}") for i in range(6)]
    short = dataclasses.replace(SMALL_CFG, max_len=8, n_entities=19)
    with pytest.raises(ConfigError, match="max_len, n_entities$"):
        fit(tables, short, TrainSettings(epochs=2, batch_size=3, candidate_cap=16), cooccur={}, model=model)
    assert all(np.array_equal(before[k], v) for k, v in model.named_arrays().items())


def test_fit_runs_and_logs():
    model, history = small_fit(epochs=2)
    assert len(history.epochs) == 2
    rec = history.epochs[0]
    assert set(rec) == {"epoch", "loss", "mlm_loss", "mer_loss", "mlm_acc", "mer_acc", "oep_acc"}
    assert rec["loss"] > 0
    assert history.step_losses


def test_fit_is_deterministic_for_fixed_seed():
    _, h1 = small_fit(seed=5, epochs=2)
    _, h2 = small_fit(seed=5, epochs=2)
    assert h1.step_losses == h2.step_losses
    _, h3 = small_fit(seed=6, epochs=2)
    assert h1.step_losses != h3.step_losses


def test_fit_decreases_loss():
    _, history = small_fit(epochs=10)
    first, last = history.epochs[0]["loss"], history.epochs[-1]["loss"]
    assert last < first


def test_fit_max_steps_cuts_short():
    _, history = small_fit(epochs=10, max_steps=3)
    assert len(history.step_losses) == 3


def test_fit_max_steps_is_the_step_budget(monkeypatch):
    # 6 tables in batches of 3 take 2 steps an epoch, so 2 epochs hold 4 steps;
    # a budget of 7 keeps cycling epochs and decays the rate over those 7 steps
    budgets = []
    real_adam = nm.Adam

    def recording_adam(params, lr0, total_steps, **kw):
        budgets.append(total_steps)
        return real_adam(params, lr0, total_steps, **kw)

    monkeypatch.setattr(nm, "Adam", recording_adam)
    _, history = small_fit(epochs=2, max_steps=7)
    assert len(history.step_losses) == 7
    assert len(history.epochs) == 4
    assert budgets == [7]


def test_fit_max_steps_ends_when_an_epoch_takes_no_step():
    # nothing is ever masked, so no table yields a loss and no step is taken
    _, history = small_fit(epochs=2, max_steps=5, mlm_ratio=0.0, mer_ratio=0.0)
    assert history.step_losses == []
    assert len(history.epochs) == 1


@pytest.mark.parametrize("batch_size", [0, -2])
def test_fit_rejects_a_batch_size_below_one(batch_size):
    # 0 used to divide by zero; a negative size took no step and logged zero losses
    rng = np.random.default_rng(100)
    tables = [make_indexed_table(rng, 3, 2, n_tokens=30, n_entities=20, table_id=f"t{i}") for i in range(3)]
    settings = TrainSettings(lr0=1e-3, epochs=2, batch_size=batch_size, candidate_cap=16)
    with pytest.raises(ConfigError, match="batch_size"):
        fit(tables, SMALL_CFG, settings, cooccur={})


def test_fit_builds_each_visibility_once_and_encodes_with_it(monkeypatch):
    from tabrep import encoding

    built = []
    real = encoding.build_visibility

    def counting(seq):
        built.append(seq.table_id)
        return real(seq)

    monkeypatch.setattr(encoding, "build_visibility", counting)
    encoded = []

    def recording(seqs, model, rows=None):
        # a corrupted clone has its source table's visibility
        for seq in seqs:
            assert seq.visibility().tobytes() == real(seq).tobytes()
        encoded.extend(s.table_id for s in seqs)
        return encode(seqs, model, rows=rows)

    monkeypatch.setattr(pretrain, "encode", recording)
    small_fit(epochs=3)
    assert sorted(built) == [f"t{i}" for i in range(6)]
    assert len(encoded) > len(built)


def test_a_two_block_fit_step_runs_the_attention_kernels_once_per_table_per_block(monkeypatch):
    # bench/tracing.py attributes attention time through these two kernel
    # names. The first block runs every table of the batch, the last only
    # those it has query rows in (in fit, every batched table has some).
    from tabrep import kernels

    calls = {"masked_softmax_fwd": 0, "softmax_bwd": 0}
    for name in calls:
        real = getattr(kernels, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(kernels, name, counting)
    batched, queried = [], []

    def recording(seqs, model, rows=None):
        ends = np.cumsum([len(s.ids) for s in seqs])
        batched.append(len(seqs))
        queried.append(len(np.unique(np.searchsorted(ends, rows, side="right"))))
        return encode(seqs, model, rows=rows)

    monkeypatch.setattr(pretrain, "encode", recording)
    rng = np.random.default_rng(101)
    tables = [make_indexed_table(rng, 3, 2, n_tokens=30, n_entities=20, table_id=f"t{i}") for i in range(6)]
    cfg = EncoderConfig(n_blocks=2, d_model=8, n_heads=2, d_intermediate=16, max_len=64, n_tokens=30, n_entities=20)
    settings = TrainSettings(mlm_ratio=0.1, mer_ratio=0.2, lr0=1e-3, epochs=1, batch_size=6, candidate_cap=16, seed=4)
    _, history = fit(tables, cfg, settings, cooccur={}, max_steps=1)
    assert len(history.step_losses) == 1 and len(batched) == 1 and 1 < batched[0] < len(tables)
    per_kernel = batched[0] + queried[0]
    assert calls == {"masked_softmax_fwd": per_kernel, "softmax_bwd": per_kernel}


def test_fit_stops_on_a_non_finite_loss():
    model = init_model(SMALL_CFG, np.random.default_rng(0))
    model["block0.Wq"].data[0, 0] = np.nan
    before = {name: arr.copy() for name, arr in model.named_arrays().items()}
    with pytest.raises(NonFiniteLoss, match=r"step 0 \(epoch 0\)") as err:
        small_fit(model=model)
    # the message names the tables of the failing batch: three of the six
    named = str(err.value).split("tables ")[-1].split(", ")
    assert len(set(named)) == 3 and set(named) <= {f"t{i}" for i in range(6)}
    assert all(arr.tobytes() == before[name].tobytes() for name, arr in model.named_arrays().items())


def test_fit_stops_on_a_non_finite_gradient(monkeypatch):
    # the loss stays finite; one gradient entry is not
    model = init_model(SMALL_CFG, np.random.default_rng(0))
    before = {name: arr.copy() for name, arr in model.named_arrays().items()}
    backward = nm.Tensor.backward

    def poisoned(self):
        backward(self)
        model["block0.Wq"].grad[0, 0] = np.inf

    monkeypatch.setattr(nm.Tensor, "backward", poisoned)
    with pytest.raises(NonFiniteLoss, match=r"gradient norm is inf at step 0 \(epoch 0\), tables t\d") as err:
        small_fit(model=model)
    assert len(set(str(err.value).split("tables ")[-1].split(", "))) == 3
    assert all(arr.tobytes() == before[name].tobytes() for name, arr in model.named_arrays().items())


# -- masked-recovery evaluation ----------------------------------------------------


def recovery_tables():
    rng = np.random.default_rng(21)
    return [
        make_indexed_table(rng, 5, 3, n_tokens=30, n_entities=20, with_topic=True, table_id="a"),
        make_indexed_table(rng, 2, 2, n_tokens=30, n_entities=20, caption_len=0, table_id="b"),
        make_indexed_table(rng, 1, 1, n_tokens=30, n_entities=20, caption_len=0, table_id="c"),
        make_indexed_table(rng, 3, 1, n_tokens=30, n_entities=20, table_id="d"),  # no object cells
    ]


def reference_recovery(model, tables, cooccur, cap, seed, use_visibility=True, only_objects=False):
    # the per-cell loop: mask one cell, encode the whole copy, score that cell
    rng = np.random.default_rng(seed)
    correct = total = 0
    for t in tables:
        seq = linearize(t, model.cfg.max_len)
        cells = seq.cell_indices()
        if only_objects:
            cells = cells[seq.cols[cells] != t.subject_col]
        if not len(cells):
            continue
        golds = seq.ids[cells]
        cands = build_candidates(t.entity_ids(), golds, cooccur, model.cfg.n_entities, cap, rng)
        for pos, gold in zip(cells.tolist(), golds):
            copy = seq.clone()
            mask_cell(copy, pos, mask_entity=True, mask_mention=True)
            logits = entity_logits(model, encode(copy, model, use_visibility=use_visibility).h, np.array([pos]), cands)
            correct += int(cands[int(np.argmax(logits.data[0]))] == gold)
            total += 1
    return correct / max(1, total)


@pytest.mark.parametrize("use_visibility", [True, False])
@pytest.mark.parametrize("only_objects", [False, True])
def test_masked_recovery_equals_the_per_cell_reference(use_visibility, only_objects):
    model, _ = small_fit(epochs=3)
    model.use_visibility = use_visibility  # the same weights, scored in either mode
    kw = dict(cap=8, seed=4, only_objects=only_objects)
    tables = recovery_tables()
    want = reference_recovery(model, tables, {}, use_visibility=use_visibility, **kw)
    assert masked_recovery_accuracy(model, tables, {}, **kw) == want


def spy_embeds(monkeypatch):
    """Record (table id, intact ids, masked ids, taped) of each embed: the
    scorer embeds a table followed by its masked copy."""
    embedded, real = [], encoder.embed_sequence

    def counting(seq, *args):
        out = real(seq, *args)
        n = len(seq) // 2
        embedded.append((seq.table_id, seq.ids[:n], seq.ids[n:], bool(out._parents)))
        return out

    monkeypatch.setattr(encoder, "embed_sequence", counting)
    return embedded


def masked_ids(seq, positions):
    ids = seq.ids.copy()
    ids[positions] = MASK_ID
    return ids


def test_masked_recovery_encodes_each_table_once(monkeypatch):
    model = init_model(SMALL_CFG, np.random.default_rng(0))
    embedded = spy_embeds(monkeypatch)
    masked_recovery_accuracy(model, recovery_tables(), {}, cap=8, seed=0)
    seqs = [linearize(t, model.cfg.max_len) for t in recovery_tables()]
    # one embed per table, of the table and its copy with every cell masked, no tape
    assert [(e[0], e[3]) for e in embedded] == [(f"{t}+{t}", False) for t in "abcd"]
    for (_, intact, masked, _), seq in zip(embedded, seqs):
        assert np.array_equal(intact, seq.ids)
        assert np.array_equal(masked, masked_ids(seq, seq.cell_indices()))


@pytest.mark.parametrize("where", ["past_the_end", "negative", "caption_token"])
def test_masked_cell_states_refuse_a_position_that_is_not_an_entity_of_the_table(where):
    model = init_model(SMALL_CFG, np.random.default_rng(0))
    seq = linearize(recovery_tables()[0], model.cfg.max_len)
    bad = {"past_the_end": len(seq), "negative": -1, "caption_token": np.flatnonzero(seq.kinds == CAPTION)[0]}[where]
    with pytest.raises(ShapeMismatch):
        encoder.masked_cell_states(seq, np.array([seq.cell_indices()[0], bad]), model)
