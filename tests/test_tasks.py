"""Task instance builders, heads, probe sequences, and evaluation rules on a
small hand-written corpus with known answers."""

import numpy as np
import pytest

import tabrep.numeric as nm
from tabrep.baselines import CorpusIndex
from tabrep.corpus import (
    MASK_ID,
    RawCell,
    RawTable,
    WordTokenizer,
    build_vocabs,
    process_table,
)
from tabrep.encoder import EncoderConfig, encode, init_model
from tabrep.encoding import CELL, HEADER, linearize
from tabrep.errors import ConfigError, EmptyColumn, NonFiniteLoss
from tabrep.pretrain import entity_logits
from tabrep.tasks import (
    ColumnTypeHead,
    KbEntry,
    LinkingHead,
    RelationHead,
    SchemaHead,
    SideData,
    FinetuneSettings,
    _ranked,
    build_column_type_data,
    build_fill_data,
    build_linking_data,
    build_relation_data,
    build_row_population_data,
    build_schema_data,
    cell_position,
    column_repr,
    eval_column_types,
    eval_linking,
    eval_linking_lookup,
    eval_relations_votes,
    header_vocabulary,
    linking_sequence,
    load_side_data,
    pack_tables,
    row_population_sequence,
    schema_sequence,
    train_column_types,
    train_linking,
    train_row_population,
)

from conftest import make_indexed_table

TOKENIZER = WordTokenizer()


def raw(table_id, caption, headers, rows):
    return RawTable(
        table_id=table_id,
        page_title="",
        section_title="",
        caption=caption,
        headers=headers,
        rows=[[RawCell(text=t, entity=r) for t, r in row] for row in rows],
    )


RAW_TABLES = [
    raw("a1", "alpha roster", ["Player", "Town"],
        [[("Ann Adams", "P1"), ("York", "C1")], [("Bob Brown", "P2"), ("Leeds", "C2")]]),
    raw("a2", "beta roster", ["Player", "Town"],
        [[("Cal Carey", "P3"), ("York", "C1")], [("Dee Dunn", "P4"), ("Leeds", "C2")]]),
    raw("b1", "alpha clubs", ["Player", "Residence"],
        [[("Ann Adams", "P1"), ("York", "C1")], [("Bob Brown", "P2"), ("Leeds", "C2")]]),
    raw("b2", "gamma venues", ["Club", "Arena"],
        [[("Reds", "K1"), ("York", "C1")], [("Blues", "K2"), ("Leeds", "C2")]]),
]


def toy_side():
    side = SideData()
    for p in ("P1", "P2", "P3", "P4"):
        side.types[p] = ["person", "player"]
    for c in ("C1", "C2"):
        side.types[c] = ["place"]
    for k in ("K1", "K2"):
        side.types[k] = ["organization"]
    for pair in (("P1", "C1"), ("P2", "C2"), ("P3", "C1"), ("P4", "C2")):
        side.relations[pair] = {"born in"}
    for pair in (("K1", "C1"), ("K2", "C2")):
        side.relations[pair] = {"based in"}
    # description words must exist in the corpus vocabulary to carry signal
    side.kb = {
        "P1": KbEntry(name="Ann Adams", description="alpha york", types=["person"]),
        "P2": KbEntry(name="Ann Adams", description="gamma leeds", types=["person"]),
        "P3": KbEntry(name="Cal Carey", description="", types=["person"]),
        "P4": KbEntry(name="Dee Dunn", description="beta venues", types=["person"]),
    }
    side.candidates = {
        "ann adams": ["P2", "P1"],
        "bob brown": ["P2"],
        "cal carey": ["P3"],
        "dee dunn": ["P9", "P4"],
        "york": ["C9"],
    }
    return side


@pytest.fixture(scope="module")
def corpus():
    processed = [process_table(r) for r in RAW_TABLES]
    tv, ev = build_vocabs(processed, min_token_count=1, min_entity_count=1)
    packs = pack_tables(processed, tv, ev, max_len=64)
    assert len(packs) == 4
    return packs, tv, ev


@pytest.fixture(scope="module")
def tiny_model(corpus):
    _, tv, ev = corpus
    cfg = EncoderConfig(
        n_blocks=1, d_model=8, n_heads=2, d_intermediate=16, max_len=64,
        n_tokens=len(tv), n_entities=len(ev),
    )
    return init_model(cfg, np.random.default_rng(3))


# -- packs and column summaries ------------------------------------------------


@pytest.mark.parametrize(
    "name, line",
    [
        ("types.jsonl", '{"entity": "x"}'),
        ("types.jsonl", '["x", ["person"]]'),
        ("types.jsonl", '{"entity": ["x"], "types": ["person"]}'),
        ("relations.jsonl", '{"subject": "a", "object": "b", "relations": [["r"]]}'),
        ("kb.jsonl", '{"entity": "x", "types": "person"}'),
        ("candidates.jsonl", '{"mention": "x", "candidates": 3}'),
    ],
)
def test_load_side_data_rejects_records_of_the_wrong_shape(tmp_path, name, line):
    (tmp_path / name).write_text(line + "\n")
    with pytest.raises(ConfigError, match=f"{name}: bad record"):
        load_side_data(tmp_path)


def test_load_side_data_reads_well_formed_records(tmp_path):
    (tmp_path / "types.jsonl").write_text('{"entity": "e", "types": ["t"]}\n')
    (tmp_path / "kb.jsonl").write_text('{"entity": "e"}\n')
    side = load_side_data(tmp_path)
    assert side.types == {"e": ["t"]} and side.kb["e"] == KbEntry(name="", description="", types=[])


def test_pack_tables_skips_unlinearizable(corpus):
    packs, tv, ev = corpus
    # a zero budget makes every table unencodable; they are skipped, not fatal
    assert pack_tables([p.processed for p in packs], tv, ev, max_len=0) == []


def test_cell_position(corpus):
    packs, _, _ = corpus
    seq = packs[0].seq
    pos = cell_position(seq, 0, 1)
    assert seq.kinds[pos] == CELL
    assert seq.rows[pos] == 0 and seq.cols[pos] == 1
    assert cell_position(seq, 9, 9) is None


def test_column_repr_is_mean_of_states(corpus, tiny_model):
    packs, _, _ = corpus
    seq = packs[0].seq
    enc = encode(seq, tiny_model)
    col = column_repr(enc.h, seq, 1, tiny_model.dtype)
    assert col.data.shape == (1, 16)
    head_pos = [i for i in range(len(seq)) if seq.kinds[i] == HEADER and seq.cols[i] == 1]
    cell_pos = [i for i in range(len(seq)) if seq.kinds[i] == CELL and seq.cols[i] == 1]
    np.testing.assert_allclose(col.data[0, :8], enc.h.data[head_pos].mean(axis=0), rtol=1e-5)
    np.testing.assert_allclose(col.data[0, 8:], enc.h.data[cell_pos].mean(axis=0), rtol=1e-5)


def test_column_repr_empty_column_raises(tiny_model):
    rng = np.random.default_rng(0)
    t = make_indexed_table(rng, 2, 2, n_tokens=20, n_entities=10)
    t.cells = [c for c in t.cells if c.col == 0]
    seq = linearize(t)
    cfg = EncoderConfig(n_blocks=1, d_model=8, n_heads=2, d_intermediate=16, max_len=64, n_tokens=20, n_entities=10)
    model = init_model(cfg, rng)
    enc = encode(seq, model)
    with pytest.raises(EmptyColumn):
        column_repr(enc.h, seq, 1, model.dtype)


# -- heads ------------------------------------------------------------------------


def test_head_shapes_and_param_names(tiny_model):
    rng = np.random.default_rng(1)
    state = nm.Tensor(np.zeros((1, 8), dtype=np.float32))
    col = nm.Tensor(np.zeros((1, 16), dtype=np.float32))

    ct = ColumnTypeHead(8, 5, rng)
    assert ct.logits(col).data.shape == (1, 5)
    assert [p.name for p in ct.params()] == ["coltype_W", "coltype_b"]

    rel = RelationHead(8, 3, rng)
    assert rel.logits(col, col).data.shape == (1, 3)
    assert [p.name for p in rel.params()] == ["rel_W", "rel_b"]

    link = LinkingHead(8, ["person", "place"], rng)
    assert link.project(state).data.shape == (1, 24)
    assert [p.name for p in link.params()] == ["link_W", "link_b", "link_type_emb"]

    sch = SchemaHead(8, 7, rng)
    assert sch.logits(state).data.shape == (1, 7)
    assert [p.name for p in sch.params()] == ["schema_W", "schema_b"]


def test_entry_matrix_blocks(tiny_model):
    rng = np.random.default_rng(2)
    head = LinkingHead(8, ["person", "place"], rng)
    word = tiny_model["word_emb"].data
    entries = [
        (np.array([5, 6]), np.array([7]), np.array([0, 1])),
        (np.array([5]), np.array([], dtype=np.int64), np.array([], dtype=np.int64)),
    ]
    mat = head.entry_matrix(tiny_model, entries).data
    assert mat.shape == (2, 24)
    np.testing.assert_allclose(mat[0, :8], word[[5, 6]].mean(axis=0), rtol=1e-6)
    np.testing.assert_allclose(mat[0, 8:16], word[7], rtol=1e-6)
    np.testing.assert_allclose(mat[0, 16:], head.type_emb.data[[0, 1]].mean(axis=0), rtol=1e-6)
    # absent description and types contribute zero blocks
    assert np.all(mat[1, 8:16] == 0.0) and np.all(mat[1, 16:] == 0.0)
    # switching descriptions off zeroes that block even when ids exist
    blind = head.entry_matrix(tiny_model, entries, use_description=False).data
    assert np.all(blind[:, 8:16] == 0.0)
    np.testing.assert_allclose(blind[0, :8], mat[0, :8], rtol=1e-6)


# -- instance builders ----------------------------------------------------------


def test_column_type_instances(corpus):
    packs, _, ev = corpus
    inst, types = build_column_type_data(packs, ev, toy_side())
    assert types == ["organization", "person", "place", "player"]
    assert len(inst) == 8
    by_key = {(i.pack, i.col): i.golds for i in inst}
    assert by_key[(0, 0)] == {types.index("person"), types.index("player")}
    assert by_key[(0, 1)] == {types.index("place")}
    assert by_key[(3, 0)] == {types.index("organization")}


def test_column_type_explicit_type_list(corpus):
    packs, _, ev = corpus
    inst, types = build_column_type_data(packs, ev, toy_side(), type_list=["place"])
    assert types == ["place"]
    assert len(inst) == 4
    assert all(i.golds == {0} for i in inst)


def test_relation_instances(corpus):
    packs, _, ev = corpus
    inst, rels = build_relation_data(packs, ev, toy_side())
    assert rels == ["based in", "born in"]
    assert len(inst) == 4
    born = rels.index("born in")
    first = next(i for i in inst if i.pack == 0)
    assert first.golds == {born}
    assert len(first.pairs) == 2
    p1, c1 = ev.get("P1"), ev.get("C1")
    assert (p1, c1) in first.pairs


def test_relation_votes_perfect_on_clean_side(corpus):
    packs, _, ev = corpus
    side = toy_side()
    inst, rels = build_relation_data(packs, ev, side)
    report = eval_relations_votes(inst, ev, side, rels, threshold=0.5)
    assert report["metrics"]["f1"] == pytest.approx(1.0)
    assert report["n_instances"] == 4


def test_linking_instances_gold_filter(corpus):
    packs, _, _ = corpus
    side = toy_side()
    train = build_linking_data(packs, side, require_gold=True)
    evalset = build_linking_data(packs, side, require_gold=False)
    assert len(train) == 6
    assert len(evalset) == 10
    # york cells carry candidates that miss the gold; only eval keeps them
    assert all(i.gold_ref != "C1" for i in train)
    assert sum(1 for i in evalset if i.gold_ref == "C1") == 4


def test_linking_lookup_counts(corpus):
    packs, _, _ = corpus
    evalset = build_linking_data(packs, toy_side(), require_gold=False)
    report = eval_linking_lookup(evalset)
    m = report["metrics"]
    assert (m["tp"], m["fp"], m["fn"]) == (3, 7, 7)


def test_row_population_instances(corpus):
    packs, tv, ev = corpus
    index = CorpusIndex.build([p.indexed for p in packs], tv.strings)
    inst = build_row_population_data(packs, index, tv, n_seeds=1, retrieval_k=4)
    assert len(inst) == 4
    first = next(i for i in inst if i.pack == 0)
    assert first.seeds[0][0] == ev.get("P1")
    assert first.golds == {ev.get("P2")}
    assert ev.get("P2") in first.candidates
    assert ev.get("P1") not in first.candidates
    assert list(first.candidates) == sorted(first.candidates)


def test_row_population_offset_absorbs_the_scorer_level(corpus):
    packs, tv, ev = corpus
    index = CorpusIndex.build([p.indexed for p in packs], tv.strings)
    inst = build_row_population_data(packs, index, tv, n_seeds=1, retrieval_k=4)
    cfg = EncoderConfig(
        n_blocks=1, d_model=8, n_heads=2, d_intermediate=16, max_len=64,
        n_tokens=len(tv), n_entities=len(ev),
    )
    model = init_model(cfg, np.random.default_rng(3))
    # every masked-cell logit sits near +6, a level a softmax never corrects
    u = np.zeros(8, dtype=np.float32)
    u[0] = 1.0
    model["ent_emb"].data[...] += u
    model["mer_b"].data[...] = 6.0 * u

    raw_losses, labels = [], []
    for i in inst:
        seq, pos = row_population_sequence(packs[i.pack], i.seeds, max_len=64)
        logits = entity_logits(model, encode(seq, model).h, np.array([pos]), i.candidates)
        y = np.isin(i.candidates, sorted(i.golds)).astype(np.float32)[None, :]
        raw_losses.append(float(nm.bce_with_logits_sum(logits, y).data))
        labels.append(y.ravel())
    rate = np.concatenate(labels).mean()
    rate_only = np.mean([-(y * np.log(rate) + (1 - y) * np.log(1 - rate)).sum() for y in labels])

    # lr0=0 takes no real step, so the epoch loss is the loss at the start
    settings = FinetuneSettings(lr0=0.0, epochs=1, batch_size=8, seed=0)
    (start_loss,) = train_row_population(model, packs, inst, settings, max_len=64)
    assert np.mean(raw_losses) > 3 * rate_only
    assert abs(start_loss - rate_only) < 0.05 * rate_only


def test_fill_instances(corpus):
    packs, tv, ev = corpus
    index = CorpusIndex.build([p.indexed for p in packs], tv.strings)
    inst = build_fill_data(packs, index)
    # every object cell of a1/a2/b1 has a row mate under a P(h'|h) > 0 header
    assert all(i.gold in i.candidates for i in inst)
    a1 = [i for i in inst if i.pack == 0]
    assert {(i.row, i.col) for i in a1} == {(0, 1), (1, 1)}
    assert [i.candidates for i in a1] == [[ev.get("C1")], [ev.get("C2")]]


def test_header_vocabulary_threshold(corpus):
    packs, _, _ = corpus
    assert header_vocabulary(packs, min_tables=2) == ["player", "town"]
    assert header_vocabulary(packs, min_tables=3) == ["player"]
    assert header_vocabulary(packs, min_tables=5) == []


def test_schema_instances(corpus):
    packs, _, _ = corpus
    inst = build_schema_data(packs, ["player", "town"], n_seeds=1)
    assert len(inst) == 2
    assert all(i.seeds == ["player"] and i.golds == {"town"} for i in inst)


# -- probe sequences -------------------------------------------------------------


def test_linking_sequence_hides_entities(corpus):
    packs, _, _ = corpus
    seq = linking_sequence(packs[0])
    for i in range(len(seq)):
        if seq.kinds[i] == CELL:
            assert seq.ids[i] == MASK_ID
            assert len(seq.mentions[i]) > 0 and not np.all(seq.mentions[i] == MASK_ID)
    # the pack's own sequence is untouched
    orig = packs[0].seq
    assert any(orig.kinds[i] == CELL and orig.ids[i] != MASK_ID for i in range(len(orig)))


def test_row_population_sequence(corpus):
    packs, _, ev = corpus
    seeds = [(ev.get("P1"), np.array([5, 6], dtype=np.int64))]
    seq, pos = row_population_sequence(packs[0], seeds, max_len=64)
    cells = [i for i in range(len(seq)) if seq.kinds[i] == CELL]
    assert len(cells) == 2
    assert seq.kinds[pos] == CELL
    assert seq.ids[pos] == MASK_ID
    assert not any(kind == HEADER for kind in seq.kinds)


def test_schema_sequence(corpus):
    packs, _, _ = corpus
    ids = {"player": np.array([5], dtype=np.int64), "town": np.array([6], dtype=np.int64)}
    seq, pos = schema_sequence(packs[0], ["player"], ids, max_len=64)
    assert seq.kinds[pos] == HEADER
    assert seq.ids[pos] == MASK_ID
    assert seq.cols[pos] == 1
    assert not any(kind == CELL for kind in seq.kinds)


# -- ranking and reweighting -------------------------------------------------------


def test_ranked_breaks_ties_to_smaller_id():
    cands = np.array([9, 3, 7])
    scores = np.array([0.5, 0.5, 0.9])
    assert _ranked(cands, scores) == [7, 3, 9]


def test_reweight_alpha_extremes(corpus, tiny_model):
    packs, tv, _ = corpus
    side = toy_side()
    evalset = build_linking_data(packs, side, require_gold=False)
    head = LinkingHead(8, ["person", "place", "organization"], np.random.default_rng(4))
    common = dict(side=side, token_vocab=tv, tokenizer=TOKENIZER)
    nearly_zero = eval_linking(tiny_model, head, packs, evalset, alpha=1e-12, reweight=True, **common)
    assert nearly_zero["metrics"] == eval_linking_lookup(evalset)["metrics"]
    huge = eval_linking(tiny_model, head, packs, evalset, alpha=1e12, reweight=True, **common)
    plain = eval_linking(tiny_model, head, packs, evalset, reweight=False, **common)
    assert huge["metrics"] == plain["metrics"]


def test_description_separates_namesakes(corpus):
    packs, tv, ev = corpus
    side = toy_side()
    # P1 and P2 share a name; only the description tells them apart
    train = [i for i in build_linking_data(packs, side, require_gold=True) if i.gold_ref == "P1"]
    assert len(train) == 2 and all(i.candidate_refs == ["P2", "P1"] for i in train)

    cfg = EncoderConfig(n_blocks=1, d_model=8, n_heads=2, d_intermediate=16, max_len=64,
                        n_tokens=len(tv), n_entities=len(ev))
    model = init_model(cfg, np.random.default_rng(7))
    head = LinkingHead(8, ["person"], np.random.default_rng(8))
    settings = FinetuneSettings(lr0=5e-2, epochs=40, batch_size=2, seed=0)
    losses = train_linking(model, head, packs, train, side, tv, TOKENIZER, settings)
    assert losses[-1] < losses[0]

    common = dict(side=side, token_vocab=tv, tokenizer=TOKENIZER)
    with_desc = eval_linking(model, head, packs, train, use_description=True, **common)
    without = eval_linking(model, head, packs, train, use_description=False, **common)
    # with identical name and type blocks, dropping the description leaves
    # nothing to prefer the gold by, and the lookup-first namesake wins
    assert with_desc["metrics"]["f1"] == pytest.approx(1.0)
    assert without["metrics"]["f1"] == 0.0


# -- training smoke ------------------------------------------------------------------


def test_column_type_training_learns_toy(corpus, tiny_model):
    packs, _, ev = corpus
    inst, types = build_column_type_data(packs, ev, toy_side())
    model = tiny_model
    head = ColumnTypeHead(8, len(types), np.random.default_rng(5))
    settings = FinetuneSettings(lr0=1e-2, epochs=15, batch_size=4, seed=1)
    losses = train_column_types(model, head, packs, inst, settings, len(types))
    assert len(losses) == 15
    assert losses[-1] < losses[0]
    report = eval_column_types(model, head, packs, inst)
    assert set(report) == {"metrics", "n_instances"}
    assert report["n_instances"] == 8
    assert report["metrics"]["f1"] > 0.8


def test_finetune_stops_on_a_non_finite_loss(corpus, tiny_model):
    packs, _, ev = corpus
    inst, types = build_column_type_data(packs, ev, toy_side())
    model = init_model(tiny_model.cfg, np.random.default_rng(3))
    head = ColumnTypeHead(8, len(types), np.random.default_rng(5))
    model["block0.Wq"].data[0, 0] = np.nan
    params = model.params() + head.params()
    before = [p.data.copy() for p in params]
    settings = FinetuneSettings(lr0=1e-2, epochs=2, batch_size=4, seed=1)
    with pytest.raises(NonFiniteLoss, match="step 0"):
        train_column_types(model, head, packs, inst, settings, len(types))
    assert all(p.data.tobytes() == b.tobytes() for p, b in zip(params, before))
