"""Acceptance suite. One test per published criterion, in order; each prints
the measured value next to its threshold. The heavier fixtures (a memorized
corpus and a pre-trained general model) are shared across criteria."""

import math
import time
from collections import Counter

import numpy as np
import pytest

import tabrep.kernels as kernels
import tabrep.numeric as nm
from tabrep.baselines import Bm25Index, CorpusIndex, vote_relations
from tabrep.corpus import build_vocabs, parse_raw, pretrain_ok, process_table
from tabrep.encoder import EncoderConfig, Model, encode, init_entity_embeddings, init_model
from tabrep.encoding import CAPTION, CELL, HEADER, TOPIC, build_visibility, linearize, mask_cell
from tabrep.metrics import average_precision, linking_prf, mean_average_precision
from tabrep.pretrain import (
    MaskedTable,
    TrainSettings,
    apply_masks,
    build_candidates,
    canonical_mentions,
    fit,
    masked_recovery_accuracy,
    sample_cell_mask,
    sample_token_mask,
    table_loss,
    KEEP,
    MASK_BOTH,
    MASK_EMB,
    RANDOM_EMB,
)
from tabrep.store import save_checkpoint, load_checkpoint
from tabrep.synth import make_corpus
from tabrep.tasks import (
    ColumnTypeHead,
    FinetuneSettings,
    KbEntry,
    RelationHead,
    SchemaHead,
    SideData,
    build_column_type_data,
    build_fill_data,
    build_relation_data,
    build_row_population_data,
    build_schema_data,
    eval_cell_filling,
    eval_column_types,
    eval_relations,
    eval_row_population,
    eval_schema,
    header_vocabulary,
    pack_tables,
    train_column_types,
    train_relations,
    train_row_population,
    train_schema,
)

from conftest import make_indexed_table


def report(tag, ok, detail):
    print(f"[{tag}] {detail} -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"[{tag}] {detail}"


def packed_corpus(seed, n_tables, flavor, max_len):
    raws, world = make_corpus(seed, n_tables, flavor)
    processed = [process_table(parse_raw(r)) for r in raws]
    processed = [p for p in processed if pretrain_ok(p)]
    tv, ev = build_vocabs(processed, min_token_count=1, min_entity_count=1)
    packs = pack_tables(processed, tv, ev, max_len)
    return packs, tv, ev, world


def clone_model(model: Model) -> Model:
    out = init_model(model.cfg, np.random.default_rng(0), dtype=model.dtype)
    for name, arr in model.named_arrays().items():
        out.weights[name].data[...] = arr
    return out


def world_side(world, seed=7) -> SideData:
    side = SideData()
    side.types = world.entity_types()
    for rec in world.relations():
        side.relations.setdefault((rec["subject"], rec["object"]), set()).update(rec["relations"])
    for rec in world.kb_entries():
        side.kb[rec["entity"]] = KbEntry(name=rec["name"], description=rec["description"], types=rec["types"])
    for rec in world.candidate_lookup(np.random.default_rng(seed)):
        side.candidates[rec["mention"]] = rec["candidates"]
    return side


def monte_carlo_random_map(cand_lists, gold_sets, seed, n_shuffles=200):
    """Mean AP of uniformly shuffled versions of the same candidate lists."""
    rng = np.random.default_rng(seed)
    aps = []
    for cands, golds in zip(cand_lists, gold_sets):
        pool = list(cands)
        for _ in range(n_shuffles):
            rng.shuffle(pool)
            aps.append(average_precision(pool, golds))
    return sum(aps) / len(aps)


# ---------------------------------------------------------------------------
# shared runs


@pytest.fixture(scope="module")
def memorize_run():
    """50-table single-topic corpus trained until it recalls its own cells."""
    packs, tv, ev, world = packed_corpus(seed=29, n_tables=50, flavor="memorize", max_len=64)
    indexed = [p.indexed for p in packs]
    index = CorpusIndex.build(indexed, tv.strings)

    cfg = EncoderConfig(
        n_blocks=2, d_model=64, n_heads=4, d_intermediate=128, max_len=64,
        n_tokens=len(tv), n_entities=len(ev),
    )
    settings = TrainSettings(
        mlm_ratio=0.2, mer_ratio=0.6, lr0=1e-3, epochs=200, batch_size=8,
        candidate_cap=64, use_visibility=True, seed=13,
    )
    model = init_model(cfg, np.random.default_rng(settings.seed))
    init_entity_embeddings(model, canonical_mentions(indexed))

    state = {"recovery": 0.0, "epochs": 0}

    def check(record):
        state["epochs"] = record["epoch"] + 1
        if (record["epoch"] + 1) % 5:
            return False
        state["recovery"] = masked_recovery_accuracy(
            model, indexed, index.cooccur, cap=64, seed=1
        )
        return state["recovery"] >= 0.95

    start = time.monotonic()
    fit(indexed, cfg, settings, index.cooccur, model=model, epoch_callback=check)
    elapsed = time.monotonic() - start
    if state["recovery"] < 0.95:  # ran the full budget; score the final state
        state["recovery"] = masked_recovery_accuracy(model, indexed, index.cooccur, cap=64, seed=1)
    return {
        "packs": packs, "indexed": indexed, "index": index, "model": model,
        "tv": tv, "ev": ev, "recovery": state["recovery"], "epochs": state["epochs"],
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def tasks_run():
    """Mixed-schema corpus pre-trained briefly; the base for fine-tuning."""
    packs, tv, ev, world = packed_corpus(seed=31, n_tables=40, flavor="tasks", max_len=96)
    indexed = [p.indexed for p in packs]
    index = CorpusIndex.build(indexed, tv.strings)
    cfg = EncoderConfig(
        n_blocks=2, d_model=32, n_heads=4, d_intermediate=64, max_len=96,
        n_tokens=len(tv), n_entities=len(ev),
    )
    settings = TrainSettings(
        mlm_ratio=0.2, mer_ratio=0.6, lr0=1e-3, epochs=30, batch_size=8,
        candidate_cap=64, use_visibility=True, seed=17,
    )
    model, _ = fit(indexed, cfg, settings, index.cooccur)
    return {
        "packs": packs, "indexed": indexed, "index": index, "model": model,
        "tv": tv, "ev": ev, "side": world_side(world), "max_len": 96,
    }


# ---------------------------------------------------------------------------
# criteria


def test_c01_encoder_gradients_match_finite_differences():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    cfg = EncoderConfig(
        n_blocks=1, d_model=8, n_heads=2, d_intermediate=16, max_len=16,
        n_tokens=12, n_entities=8,
    )
    model = init_model(cfg, rng, dtype=np.float64)
    tables = [make_indexed_table(rng, 2, 2, n_tokens=12, n_entities=8, caption_len=2) for _ in range(2)]
    batch = []
    for t in tables:
        seq = linearize(t, cfg.max_len)
        tok = sample_token_mask(rng, seq, 0.5, cfg.n_tokens)
        cell = sample_cell_mask(rng, seq, 0.7, cfg.n_entities)
        assert len(tok.indices) and len(cell.indices)
        corrupted = apply_masks(seq, tok, cell, rng, cfg.n_entities)
        cands = build_candidates(t.entity_ids(), cell.targets, {}, cfg.n_entities, 8, rng)
        batch.append(MaskedTable(corrupted, tok, cell, cands))

    def loss_fn():
        total, _ = table_loss(model, batch)
        return total

    err = nm.grad_check(loss_fn, model.params(), eps=1e-5)
    elapsed = time.monotonic() - start
    report("C01", err < 1e-5 and elapsed < 30.0,
           f"full-model grad check: max rel err {err:.3e} (< 1e-5), {elapsed:.1f}s (< 30s)")


def visibility_oracle(seq):
    n = len(seq)
    m = np.zeros((n, n), dtype=np.uint8)
    for i in range(n):
        for j in range(n):
            ka, kb = seq.kinds[i], seq.kinds[j]
            if i == j or ka in (CAPTION, TOPIC) or kb in (CAPTION, TOPIC):
                m[i, j] = 1
            elif ka == HEADER and kb == HEADER:
                m[i, j] = 1
            elif {ka, kb} == {HEADER, CELL}:
                m[i, j] = seq.cols[i] == seq.cols[j]
            elif ka == CELL and kb == CELL:
                m[i, j] = seq.rows[i] == seq.rows[j] or seq.cols[i] == seq.cols[j]
    return m


def test_c02_visibility_matrix_matches_oracle_and_masks_exactly():
    rng = np.random.default_rng(1)
    seqs = []
    for _ in range(1000):
        t = make_indexed_table(
            rng,
            int(rng.integers(1, 6)),
            int(rng.integers(1, 5)),
            caption_len=int(rng.integers(0, 4)),
            with_topic=bool(rng.integers(2)),
            cell_density=float(rng.uniform(0.6, 1.0)),
            subject_col=None if rng.integers(2) else 0,
        )
        seq = linearize(t, 64)
        vis = build_visibility(seq)
        assert np.array_equal(vis, visibility_oracle(seq)), "visibility differs from the pairwise rules"
        seqs.append((seq, vis))

    zero_checked = 0
    for seq, vis in seqs[:50]:
        n = len(seq)
        scores = rng.normal(size=(2, n, n)).astype(np.float32)
        probs = kernels.masked_softmax_fwd(scores, vis)
        assert np.all(probs[:, vis == 0] == 0.0), "hidden weight not exactly zero"
        sums = probs.sum(axis=-1)
        assert np.allclose(sums[:, vis.any(axis=1)], 1.0, atol=1e-5)
        zero_checked += 1
    report("C02", True,
           f"1000 visibility matrices equal the oracle; {zero_checked} masked softmaxes have exact zeros")


def test_c03_disabled_visibility_is_bitwise_plain_attention():
    rng = np.random.default_rng(2)
    cfg = EncoderConfig(
        n_blocks=2, d_model=16, n_heads=2, d_intermediate=32, max_len=48,
        n_tokens=30, n_entities=20,
    )
    model = init_model(cfg, rng)
    checked = 0
    for _ in range(100):
        t = make_indexed_table(
            rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)),
            n_tokens=30, n_entities=20, with_topic=bool(rng.integers(2)),
        )
        seq = linearize(t, cfg.max_len)
        off = encode(seq, model, use_visibility=False)
        ref = encode(seq, model, reference=True)
        assert off.h.data.tobytes() == ref.h.data.tobytes(), "masked(all-ones) != plain"
        checked += 1
    report("C03", True, f"{checked} encodings bitwise-identical between all-ones mask and plain softmax")


def test_c04_masking_rates_within_one_percent():
    rng = np.random.default_rng(3)
    big_tok = linearize(make_indexed_table(rng, 1, 1, n_tokens=5000, caption_len=1000), 1024)
    big_cell = linearize(make_indexed_table(rng, 1000, 1, n_tokens=50, n_entities=5000, caption_len=1), 1016)

    tok_total = tok_sel = tok_mask = tok_keep = tok_rand = 0
    for _ in range(100):
        plan = sample_token_mask(rng, big_tok, ratio=0.2, n_tokens=5000)
        tok_total += len(big_tok.token_indices)
        tok_sel += len(plan.indices)
        same = plan.replacements == plan.targets
        masked = plan.replacements == 1
        tok_mask += int(masked.sum())
        tok_keep += int(same.sum())
        tok_rand += int((~same & ~masked).sum())

    cell_total = cell_sel = 0
    actions = Counter()
    for _ in range(100):
        plan = sample_cell_mask(rng, big_cell, ratio=0.6, n_entities=5000)
        cell_total += len(big_cell.cell_indices())
        cell_sel += len(plan.indices)
        actions.update(int(a) for a in plan.actions)

    rates = {
        "token select": (tok_sel / tok_total, 0.2),
        "token mask": (tok_mask / tok_sel, 0.8),
        "token keep": (tok_keep / tok_sel, 0.1),
        "token random": (tok_rand / tok_sel, 0.1),
        "cell select": (cell_sel / cell_total, 0.6),
        "cell keep": (actions[KEEP] / cell_sel, 0.10),
        "cell mask-both": (actions[MASK_BOTH] / cell_sel, 0.63),
        "cell emb-only": ((actions[MASK_EMB] + actions[RANDOM_EMB]) / cell_sel, 0.27),
        "cell random-emb": (actions[RANDOM_EMB] / cell_sel, 0.027),
    }
    worst = max(abs(got - want) for got, want in rates.values())
    detail = ", ".join(f"{k} {got:.3f}/{want}" for k, (got, want) in rates.items())
    report("C04", all(abs(got - want) < 0.01 for got, want in rates.values()),
           f"masking rates within 0.01 absolute (worst {worst:.4f}): {detail}")


def test_c05_pretraining_memorizes_small_corpus(memorize_run):
    run = memorize_run
    report("C05", run["recovery"] >= 0.95 and run["elapsed"] < 300.0,
           f"masked recovery {run['recovery']:.3f} (>= 0.95) after {run['epochs']} epochs "
           f"in {run['elapsed']:.0f}s (< 300s)")


def test_c06_structure_and_mask_ratio_ablations():
    packs, tv, ev, _ = packed_corpus(seed=37, n_tables=24, flavor="memorize", max_len=64)
    indexed = [p.indexed for p in packs]
    cooccur = CorpusIndex.build(indexed, tv.strings).cooccur
    cfg = EncoderConfig(
        n_blocks=1, d_model=32, n_heads=4, d_intermediate=64, max_len=64,
        n_tokens=len(tv), n_entities=len(ev),
    )

    def run(seed, use_visibility, mer_ratio):
        settings = TrainSettings(
            mlm_ratio=0.2, mer_ratio=mer_ratio, lr0=1e-3, epochs=8, batch_size=8,
            candidate_cap=64, use_visibility=use_visibility, seed=seed,
        )
        model, _ = fit(indexed, cfg, settings, cooccur)
        return masked_recovery_accuracy(model, indexed, cooccur, cap=64, seed=99)

    vis_wins = ratio_wins = 0
    lines = []
    for seed in (0, 1, 2):
        on = run(seed, True, 0.6)
        off = run(seed, False, 0.6)
        lo = run(seed, True, 0.2)
        hi = run(seed, True, 0.8)
        vis_wins += on >= off
        ratio_wins += (on >= lo) and (on >= hi)
        lines.append(f"seed {seed}: vis on/off {on:.3f}/{off:.3f}, ratio .2/.6/.8 {lo:.3f}/{on:.3f}/{hi:.3f}")
    detail = "; ".join(lines)
    report("C06", vis_wins >= 2 and ratio_wins >= 2,
           f"visibility wins {vis_wins}/3 seeds, ratio 0.6 wins {ratio_wins}/3 seeds ({detail})")


def bm25_scores_oracle(docs, query, k1=1.2, b=0.75):
    n = len(docs)
    avg = sum(len(d) for d in docs) / n if n else 0.0
    out = {}
    for doc_idx, doc in enumerate(docs):
        tfs = Counter(doc)
        score = 0.0
        for term in sorted(set(query)):
            tf = tfs.get(term, 0)
            if tf == 0:
                continue
            df = sum(1 for d in docs if term in d)
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            score += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * len(doc) / avg))
        if score:
            out[doc_idx] = score
    return out


def pair_counts_oracle(tables):
    events = {}
    for ti, t in enumerate(tables):
        subj = {c.row: c.entity_id for c in t.cells if c.col == t.subject_col}
        for c in t.cells:
            if c.col == t.subject_col or c.row not in subj:
                continue
            events.setdefault((subj[c.row], c.entity_id), set()).add((ti, t.headers_norm[c.col]))
    counts = {}
    seen = set()
    for ev in events.values():
        evs = sorted(ev)
        for i in range(len(evs)):
            for j in range(i + 1, len(evs)):
                (t1, h1), (t2, h2) = evs[i], evs[j]
                if t1 == t2:
                    continue
                a, b = sorted((h1, h2))
                if (t1, t2, a, b) in seen:
                    continue
                seen.add((t1, t2, a, b))
                counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


def test_c07_baselines_match_brute_force():
    rng = np.random.default_rng(4)

    bm25_corpora = 0
    for _ in range(30):
        vocab = [f"w{i}" for i in range(int(rng.integers(5, 12)))]
        docs = [
            [vocab[int(rng.integers(len(vocab)))] for _ in range(int(rng.integers(1, 12)))]
            for _ in range(int(rng.integers(3, 10)))
        ]
        index = Bm25Index.build(docs)
        query = [vocab[int(rng.integers(len(vocab)))] for _ in range(int(rng.integers(1, 4)))]
        expect = bm25_scores_oracle(docs, query)
        got = dict(index.search(query, len(docs)))
        assert set(got) == set(expect)
        assert all(abs(got[d] - s) < 1e-12 for d, s in expect.items())
        ranked = sorted(expect.items(), key=lambda kv: (-kv[1], kv[0]))[:3]
        assert index.search(query, 3) == ranked
        bm25_corpora += 1

    pair_corpora = 0
    header_pool = ["h_a", "h_b", "h_c", "h_d", "h_e"]
    for _ in range(30):
        tables = []
        for ti in range(8):
            t = make_indexed_table(
                rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)),
                n_tokens=20, n_entities=12, table_id=f"t{ti}",
            )
            t.headers_norm = [header_pool[int(rng.integers(len(header_pool)))] for _ in range(t.n_cols)]
            tables.append(t)
        index = CorpusIndex.build(tables, [f"tok{i}" for i in range(20)])
        assert index.pair_counts == pair_counts_oracle(tables), "header pair statistics differ from brute force"
        pair_corpora += 1

    monotone = 0
    for _ in range(50):
        pairs = [(int(a), int(b)) for a, b in rng.integers(0, 6, size=(int(rng.integers(1, 10)), 2))]
        rel_map = {}
        for p in set(pairs):
            rel_map[p] = {f"r{int(r)}" for r in rng.integers(0, 5, size=int(rng.integers(0, 4)))}
        prev = None
        for th in np.linspace(0.0, 1.0, 11):
            cur = vote_relations(pairs, rel_map, float(th))
            assert prev is None or cur <= prev, "vote predictions must shrink as the threshold rises"
            prev = cur
        monotone += 1
    report("C07", True,
           f"bm25 equals brute force on {bm25_corpora} corpora, pair counts on {pair_corpora}, "
           f"votes monotone on {monotone} maps")


def test_c08_metric_fixtures_to_nine_places():
    r = linking_prf(["a", "b", None, "c"], ["a", "x", "y", "c"])
    ap = average_precision(["g1", "x", "g2"], {"g1", "g2"})
    ok = (
        abs(r.precision - 2 / 3) < 1e-9
        and abs(r.recall - 2 / 4) < 1e-9
        and abs(ap - 5 / 6) < 1e-9
    )
    report("C08", ok,
           f"linking precision {r.precision:.9f} (=2/3), recall {r.recall:.9f} (=1/2), "
           f"average precision {ap:.9f} (=5/6), all within 1e-9")


def test_c09_training_is_deterministic_and_checkpoints_round_trip(tmp_path, tasks_run):
    indexed = tasks_run["indexed"][:6]
    cooccur = tasks_run["index"].cooccur
    tv, ev = tasks_run["tv"], tasks_run["ev"]
    cfg = EncoderConfig(
        n_blocks=1, d_model=16, n_heads=2, d_intermediate=32, max_len=96,
        n_tokens=len(tv), n_entities=len(ev),
    )
    settings = TrainSettings(mlm_ratio=0.2, mer_ratio=0.6, lr0=1e-3, epochs=3,
                             batch_size=4, candidate_cap=32, use_visibility=True, seed=5)
    _, h1 = fit(indexed, cfg, settings, cooccur, max_steps=10)
    _, h2 = fit(indexed, cfg, settings, cooccur, max_steps=10)
    same_losses = h1.step_losses == h2.step_losses and len(h1.step_losses) == 10

    model = tasks_run["model"]
    path = tmp_path / "model.bin"
    save_checkpoint(path, model.named_arrays(), "seed = 17\n", step=30, extra={"n_tokens": len(tv)})
    arrays, cfg_text, step, extra = load_checkpoint(path)
    same_arrays = set(arrays) == set(model.named_arrays()) and all(
        arrays[k].tobytes() == v.tobytes() and arrays[k].dtype == v.dtype and arrays[k].shape == v.shape
        for k, v in model.named_arrays().items()
    )
    report("C09", same_losses and same_arrays and step == 30 and cfg_text == "seed = 17\n",
           f"two runs repeat {len(h1.step_losses)} step losses bitwise; "
           f"{len(arrays)} checkpoint arrays round-trip bitwise")


def test_c10_fine_tuning_beats_its_baselines(tasks_run, memorize_run):
    packs, tv, ev = tasks_run["packs"], tasks_run["tv"], tasks_run["ev"]
    side, index, max_len = tasks_run["side"], tasks_run["index"], tasks_run["max_len"]
    base = tasks_run["model"]
    results = []

    settings = FinetuneSettings(lr0=1e-3, epochs=10, batch_size=8, seed=3)

    inst, types = build_column_type_data(packs, ev, side)
    model = clone_model(base)
    head = ColumnTypeHead(base.cfg.d_model, len(types), np.random.default_rng(11))
    train_column_types(model, head, packs, inst, settings, len(types))
    cta = eval_column_types(model, head, packs, inst)["metrics"]["f1"]
    results.append(("column types train F1", cta, 1.0, cta >= 1.0))

    rinst, rels = build_relation_data(packs, ev, side)
    model = clone_model(base)
    rhead = RelationHead(base.cfg.d_model, len(rels), np.random.default_rng(12))
    train_relations(model, rhead, packs, rinst, settings, len(rels))
    re = eval_relations(model, rhead, packs, rinst)["metrics"]["f1"]
    results.append(("relations train F1", re, 1.0, re >= 1.0))

    pinst = build_row_population_data(packs, index, tv, n_seeds=1, retrieval_k=100)
    model = clone_model(base)
    train_row_population(model, packs, pinst, settings, max_len)
    rp = eval_row_population(model, packs, pinst, max_len)["metrics"]
    rp_rand = monte_carlo_random_map([list(i.candidates) for i in pinst],
                                     [i.golds for i in pinst], seed=21)
    results.append(("row population MAP", rp["map"], 2 * rp_rand, rp["map"] >= 2 * rp_rand))

    headers = header_vocabulary(packs, min_tables=4)
    sinst = build_schema_data(packs, headers, n_seeds=1)
    model = clone_model(base)
    shead = SchemaHead(base.cfg.d_model, len(headers), np.random.default_rng(13))
    sa_settings = FinetuneSettings(lr0=1e-3, epochs=20, batch_size=8, seed=4)
    train_schema(model, shead, packs, sinst, headers, tv, sa_settings, max_len)
    sa = eval_schema(model, shead, packs, sinst, headers, tv, max_len)["metrics"]["map"]
    sa_rand = monte_carlo_random_map([[h for h in headers if h not in i.seeds] for i in sinst],
                                     [i.golds for i in sinst], seed=22)
    results.append(("schema MAP", sa, 2 * sa_rand, sa >= 2 * sa_rand))

    mem = memorize_run
    finst = build_fill_data(mem["packs"], mem["index"])
    assert any(len(set(i.candidates)) > 1 for i in finst), "no ambiguous filling instances generated"
    cf = eval_cell_filling(mem["model"], mem["packs"], finst)["metrics"]["p_at_1"]
    cf_rand = sum(1.0 / len(set(i.candidates)) for i in finst) / len(finst)
    results.append(("cell filling P@1", cf, cf_rand, cf > cf_rand))

    detail = "; ".join(f"{name} {got:.3f} vs {want:.3f}" for name, got, want, _ in results)
    report("C10", all(ok for *_, ok in results), detail)
