"""Task instance builders, heads, probe sequences, and evaluation rules on a
small hand-written corpus with known answers."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from tabrep.encoder import EncoderConfig, encode, init_model, trunc_normal
from tabrep.encoding import CELL, HEADER, linearize, mask_cell
from tabrep.errors import ConfigError, EmptyColumn, NonFiniteLoss, TabrepError
from tabrep.metrics import candidate_recall, linking_prf, mean_average_precision, micro_prf, precision_at_k
from tabrep.pretrain import entity_logits
from tabrep.synth import make_corpus
from tabrep.tasks import (
    ColumnTypeHead,
    KbEntry,
    LinkingHead,
    RelationHead,
    SchemaHead,
    SideData,
    FinetuneSettings,
    TablePack,
    _ranked,
    build_column_type_data,
    build_fill_data,
    build_linking_data,
    build_relation_data,
    build_row_population_data,
    build_schema_data,
    cell_position,
    cell_positions,
    column_repr,
    column_rows,
    eval_cell_filling,
    eval_column_types,
    eval_linking,
    eval_linking_lookup,
    eval_relations,
    eval_relations_votes,
    eval_row_population,
    eval_schema,
    header_vocabulary,
    linking_sequence,
    load_side_data,
    pack_tables,
    row_population_sequence,
    schema_sequence,
    train_column_types,
    train_linking,
    train_relations,
    train_row_population,
    train_schema,
)

from conftest import make_indexed_table, mutated_jsonl

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


def _side_records():
    world = make_corpus(3, 3, "tasks")[1]
    records = {
        "types.jsonl": [{"entity": e, "types": t} for e, t in sorted(world.entity_types().items())],
        "relations.jsonl": world.relations(),
        "kb.jsonl": world.kb_entries(),
        "candidates.jsonl": world.candidate_lookup(np.random.default_rng(0)),
    }
    return {name: recs[:4] for name, recs in records.items()}


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries({name: st.none() | mutated_jsonl(recs) for name, recs in _side_records().items()}))
def test_side_files_give_side_data_or_a_typed_error(files):
    with tempfile.TemporaryDirectory() as d:
        for name, text in files.items():
            if text is not None:  # None leaves the file out
                with open(os.path.join(d, name), "w", encoding="utf-8") as fh:
                    fh.write(text)
        try:
            side = load_side_data(d)
        except (TabrepError, OSError):
            return
    assert _texts(side.types) and all(_texts(t) for t in side.types.values())
    assert all(_texts(k) and _texts(r) for k, r in side.relations.items())
    assert _texts(side.kb) and all(_texts([e.name, e.description, *e.types]) for e in side.kb.values())
    assert _texts(side.candidates) and all(_texts(c) for c in side.candidates.values())


def _texts(xs):
    """Every item is a str that a UTF-8 file, such as a checkpoint's labels, can hold."""
    xs = list(xs)
    try:
        "".join(xs).encode("utf-8")
    except (TypeError, UnicodeEncodeError):
        return False
    return True


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


def test_cell_positions_map_equals_cell_position(corpus):
    packs, _, _ = corpus
    for pack in packs:
        seq = pack.seq
        at = cell_positions(seq)
        cells = set(zip(seq.rows[seq.kinds == CELL].tolist(), seq.cols[seq.kinds == CELL].tolist()))
        assert set(at) == cells
        for row, col in cells:
            assert at[row, col] == cell_position(seq, row, col)
        assert (9, 9) not in at and cell_position(seq, 9, 9) is None


def test_column_repr_is_mean_of_states(corpus, tiny_model):
    packs, _, _ = corpus
    seq = packs[0].seq
    enc = encode(seq, tiny_model)
    col = column_repr(enc.h, seq, 1)
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
        column_repr(enc.h, seq, 1)


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


@pytest.mark.parametrize("head_cls,prefix,width", [(ColumnTypeHead, "coltype", 2), (RelationHead, "rel", 4), (SchemaHead, "schema", 1)])
def test_head_checkpoint_layout_is_stable(head_cls, prefix, width):
    # task checkpoints store head.{prefix}_W (width * d, n) then head.{prefix}_b (n,);
    # W is the head's only draw from its rng, so a seed gives the same head every time
    head = head_cls(8, 3, np.random.default_rng(5), dtype=np.float64)
    assert [(p.name, p.data.shape) for p in head.params()] == [(f"{prefix}_W", (width * 8, 3)), (f"{prefix}_b", (3,))]
    assert head.W.data.tobytes() == trunc_normal(np.random.default_rng(5), (width * 8, 3), dtype=np.float64).tobytes()
    assert head.b.data.dtype == np.float64 and not head.b.data.any()


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


def test_columns_that_linearize_dropped_make_no_instances():
    # six rows at max_len 8: the caption and three headers leave room for the
    # cells of rows 0-2 only, so column 1, linked only in row 5, has no cell left
    rows = [
        [(name, f"P{i + 1}"), ("York", "C1") if i == 5 else ("Leeds", None), ("Reds", "K1") if i == 0 else ("Blues", None)]
        for i, name in enumerate(["Ann", "Bob", "Cal", "Dee", "Eve", "Fay"])
    ]
    processed = [process_table(raw("long", "roster", ["Player", "Town", "Club"], rows))]
    tv, ev = build_vocabs(processed, min_token_count=1, min_entity_count=1)
    packs = pack_tables(processed, tv, ev, max_len=8)
    side = SideData(
        types={**{f"P{i}": ["person"] for i in range(1, 7)}, "C1": ["place"], "K1": ["club"]},
        relations={("P6", "C1"): {"born in"}, ("P1", "K1"): {"plays for"}},
    )
    ct, types = build_column_type_data(packs, ev, side)
    rel, rels = build_relation_data(packs, ev, side)
    assert [i.col for i in ct] == [0, 2] and types == ["club", "person"]
    assert [(i.subj_col, i.obj_col) for i in rel] == [(0, 2)] and rels == ["plays for"]
    # every instance left has a column summary to train and evaluate on
    cfg = EncoderConfig(n_blocks=1, d_model=8, n_heads=2, d_intermediate=16, max_len=8, n_tokens=len(tv), n_entities=len(ev))
    model = init_model(cfg, np.random.default_rng(0))
    settings = FinetuneSettings(epochs=1, batch_size=2)
    ct_head, rel_head = ColumnTypeHead(8, len(types), np.random.default_rng(1)), RelationHead(8, len(rels), np.random.default_rng(2))
    train_column_types(model, ct_head, packs, ct, settings, len(types))
    train_relations(model, rel_head, packs, rel, settings, len(rels))
    assert eval_column_types(model, ct_head, packs, ct)["n_instances"] == 2
    assert eval_relations(model, rel_head, packs, rel)["n_instances"] == 1


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


@pytest.mark.parametrize("batch_size", [0, -2])
def test_finetune_rejects_a_batch_size_below_one(corpus, tiny_model, batch_size):
    # 0 used to divide by zero; a negative size trained nothing and returned zero losses
    packs, _, ev = corpus
    inst, types = build_column_type_data(packs, ev, toy_side())
    model = init_model(tiny_model.cfg, np.random.default_rng(3))
    head = ColumnTypeHead(8, len(types), np.random.default_rng(5))
    settings = FinetuneSettings(lr0=1e-2, epochs=2, batch_size=batch_size, seed=1)
    with pytest.raises(ConfigError, match="batch_size"):
        train_column_types(model, head, packs, inst, settings, len(types))


def test_finetune_stops_on_a_non_finite_gradient(corpus, tiny_model, monkeypatch):
    # the loss stays finite; one gradient entry is not
    packs, _, ev = corpus
    inst, types = build_column_type_data(packs, ev, toy_side())
    model = init_model(tiny_model.cfg, np.random.default_rng(3))
    head = ColumnTypeHead(8, len(types), np.random.default_rng(5))
    params = model.params() + head.params()
    before = [p.data.copy() for p in params]
    backward = nm.Tensor.backward

    def poisoned(self):
        backward(self)
        head.W.grad[0, 0] = np.nan

    monkeypatch.setattr(nm.Tensor, "backward", poisoned)
    settings = FinetuneSettings(lr0=1e-2, epochs=2, batch_size=4, seed=1)
    with pytest.raises(NonFiniteLoss, match="gradient norm is nan at step 0"):
        train_column_types(model, head, packs, inst, settings, len(types))
    assert all(p.data.tobytes() == b.tobytes() for p, b in zip(params, before))


def test_a_non_finite_step_names_its_epoch_and_tables(corpus, tiny_model, monkeypatch):
    packs, _, ev = corpus
    inst, types = build_column_type_data(packs, ev, toy_side())
    model = init_model(tiny_model.cfg, np.random.default_rng(3))
    head = ColumnTypeHead(8, len(types), np.random.default_rng(5))
    backward = nm.Tensor.backward
    steps = []

    def poisoned_at_step_2(self):
        backward(self)
        steps.append(1)
        if len(steps) == 3:
            head.W.grad[0, 0] = np.nan

    monkeypatch.setattr(nm.Tensor, "backward", poisoned_at_step_2)
    settings = FinetuneSettings(lr0=1e-2, epochs=2, batch_size=4, seed=1)  # 8 instances: 2 steps an epoch
    with pytest.raises(NonFiniteLoss, match=r"at step 2 \(epoch 1\), tables ") as err:
        train_column_types(model, head, packs, inst, settings, len(types))
    named = str(err.value).split("tables ")[1].split(", ")
    assert named and set(named) <= {p.seq.table_id for p in packs} and len(set(named)) == len(named)


# -- the task engine against per-instance reference loops ------------------------
#
# The references encode each instance's sequence on its own with `encode`, as
# the task loops did before they shared one packed engine.


@pytest.fixture(scope="module")
def synth_tasks():
    """A 16-table synthetic corpus with side data and every task's instances."""
    from tabrep import synth
    from tabrep.corpus import parse_raw, pretrain_ok

    raws, world = synth.make_corpus(5, 16, "tasks")
    processed = [p for p in (process_table(parse_raw(r)) for r in raws) if pretrain_ok(p)]
    tv, ev = build_vocabs(processed, min_token_count=1, min_entity_count=1)
    packs = pack_tables(processed, tv, ev, max_len=96)
    index = CorpusIndex.build([p.indexed for p in packs], tv.strings)
    side = SideData(types=world.entity_types())
    for rec in world.relations():
        side.relations.setdefault((rec["subject"], rec["object"]), set()).update(rec["relations"])
    for rec in world.kb_entries():
        side.kb[rec["entity"]] = KbEntry(name=rec["name"], description=rec["description"], types=rec["types"])
    for rec in world.candidate_lookup(np.random.default_rng(7)):
        side.candidates[rec["mention"]] = rec["candidates"]
    cfg = EncoderConfig(n_blocks=2, d_model=8, n_heads=2, d_intermediate=16, max_len=96,
                        n_tokens=len(tv), n_entities=len(ev))
    model = init_model(cfg, np.random.default_rng(9))
    for p in model.params():  # larger weights, so that scores are not all near zero
        p.data *= 10.0
    ct, types = build_column_type_data(packs, ev, side)
    re_, rels = build_relation_data(packs, ev, side)
    headers = header_vocabulary(packs, min_tables=2)
    data = {
        "coltype": ct, "relations": re_,
        "linking": build_linking_data(packs, side, require_gold=True),
        "linking_eval": build_linking_data(packs, side, require_gold=False),
        "rowpop": build_row_population_data(packs, index, tv, n_seeds=1, retrieval_k=8),
        "schema": build_schema_data(packs, headers, n_seeds=1),
        "fill": build_fill_data(packs, index),
    }
    assert all(len(v) > 8 for v in data.values())
    heads = {
        "coltype": ColumnTypeHead(8, len(types), np.random.default_rng(11)),
        "relations": RelationHead(8, len(rels), np.random.default_rng(12)),
        "linking": LinkingHead(8, sorted({t for e in side.kb.values() for t in e.types}), np.random.default_rng(14)),
        "schema": SchemaHead(8, len(headers), np.random.default_rng(13)),
    }
    for h in heads.values():
        for p in h.params():
            p.data *= 10.0
    return dict(packs=packs, tv=tv, side=side, model=model, heads=heads, headers=headers,
                n_types=len(types), n_rels=len(rels), **data)


def _hot(golds, n):
    y = np.zeros((1, n), dtype=np.float32)
    y[0, sorted(golds)] = 1.0
    return y


def _reference_logits(task, inst, s, model=None, use_description=True):
    """One instance's logits from its own `encode` call."""
    model = model or s["model"]
    pack, head = s["packs"][inst.pack], s["heads"].get(task)
    if task in ("coltype", "relations"):
        h = encode(pack.seq, model).h
        cols = [inst.col] if task == "coltype" else [inst.subj_col, inst.obj_col]
        return head.logits(*[column_repr(h, pack.seq, c) for c in cols])
    if task == "linking":
        seq = linking_sequence(pack)
        proj = head.project(nm.gather_rows(encode(seq, model).h, np.array([cell_position(seq, inst.row, inst.col)])))
        entries = [head.tokenize_entry(s["side"].kb.get(r, KbEntry()), s["tv"], TOKENIZER) for r in inst.candidate_refs]
        return nm.matmul(proj, nm.transpose(head.entry_matrix(model, entries, use_description), (1, 0)))
    if task == "rowpop":
        seq, pos = row_population_sequence(pack, inst.seeds, 96)
        return entity_logits(model, encode(seq, model).h, np.array([pos]), inst.candidates)
    if task == "schema":
        ids = {h: s["tv"].ids(h.split()) for h in s["headers"]}
        seq, pos = schema_sequence(pack, inst.seeds, ids, 96)
        return head.logits(nm.gather_rows(encode(seq, model).h, np.array([pos])))
    seq = pack.seq.clone()  # fill
    pos = cell_position(seq, inst.row, inst.col)
    mask_cell(seq, pos, mask_entity=True, mask_mention=True)
    cands = np.array(sorted(set(inst.candidates)), dtype=np.int64)
    return entity_logits(model, encode(seq, model).h, np.array([pos]), cands)


def test_train_epoch_losses_equal_a_per_instance_reference(synth_tasks):
    s = synth_tasks
    settings = FinetuneSettings(lr0=0.0, epochs=2, batch_size=5, seed=2)  # lr0=0: no step moves a weight
    hs = s["heads"]

    def bce(task, n):
        return [float(nm.bce_with_logits_sum(_reference_logits(task, i, s), _hot(i.golds, n)).data) for i in s[task]]

    index = {h: k for k, h in enumerate(s["headers"])}
    expect = {
        "coltype": bce("coltype", s["n_types"]),
        "relations": bce("relations", s["n_rels"]),
        "linking": [
            float(nm.cross_entropy_sum(_reference_logits("linking", i, s), [i.candidate_refs.index(i.gold_ref)]).data)
            for i in s["linking"]
        ],
        "schema": [
            float(nm.bce_with_logits_sum(
                _reference_logits("schema", i, s), _hot({index[g] for g in i.golds}, len(index))).data)
            for i in s["schema"]
        ],
    }
    logits = [_reference_logits("rowpop", i, s).data for i in s["rowpop"]]
    labels = [np.isin(i.candidates, sorted(i.golds)).astype(np.float32)[None, :] for i in s["rowpop"]]
    rate = np.concatenate([y.ravel() for y in labels]).mean()
    offset = np.float32(np.log(rate / (1 - rate)) - np.concatenate([z.ravel() for z in logits]).mean())
    expect["rowpop"] = [float(nm.bce_with_logits_sum(nm.Tensor(z + offset), y).data) for z, y in zip(logits, labels)]

    m, p = s["model"], s["packs"]
    got = {
        "coltype": train_column_types(m, hs["coltype"], p, s["coltype"], settings, s["n_types"]),
        "relations": train_relations(m, hs["relations"], p, s["relations"], settings, s["n_rels"]),
        "linking": train_linking(m, hs["linking"], p, s["linking"], s["side"], s["tv"], TOKENIZER, settings),
        "rowpop": train_row_population(m, p, s["rowpop"], settings, 96),
        "schema": train_schema(m, hs["schema"], p, s["schema"], s["headers"], s["tv"], settings, 96),
    }
    for task, losses in got.items():
        assert len(losses) == 2
        np.testing.assert_allclose(losses, np.mean(expect[task]), rtol=1e-6, err_msg=task)


def _reference_metrics(task, s, reweight=False):
    insts = s[task if task != "linking" else "linking_eval"]
    scores = [_reference_logits(task, i, s).data[0] for i in insts]
    if task in ("coltype", "relations"):
        preds = [{int(k) for k in np.flatnonzero(z > 0.0)} for z in scores]
        return micro_prf(preds, [i.golds for i in insts]).as_dict()
    if task == "linking":
        preds = []
        for i, z in zip(insts, scores):
            probs = np.exp(z - z.max()) / np.exp(z - z.max()).sum()
            choice = int(np.argmax(probs))
            if reweight and len(i.candidate_refs) > 1 and not (0.8 * probs[choice] > probs[0]):
                choice = 0
            preds.append(i.candidate_refs[choice])
        return linking_prf(preds, [i.gold_ref for i in insts]).as_dict()
    if task == "schema":
        rankings = [sorted((h for h in s["headers"] if h not in i.seeds), key=lambda h: (-z[s["headers"].index(h)], h))
                    for i, z in zip(insts, scores)]
        return {"map": mean_average_precision(rankings, [i.golds for i in insts])}
    if task == "rowpop":
        golds = [i.golds for i in insts]
        return {"map": mean_average_precision([_ranked(i.candidates, z) for i, z in zip(insts, scores)], golds),
                "candidate_recall": candidate_recall([set(int(c) for c in i.candidates) for i in insts], golds)}
    rankings = [_ranked(np.array(sorted(set(i.candidates))), z) for i, z in zip(insts, scores)]
    golds = [{i.gold} for i in insts]
    return {"p_at_1": sum(precision_at_k(r, g, 1) for r, g in zip(rankings, golds)) / len(rankings),
            "map": mean_average_precision(rankings, golds)}


def test_eval_metrics_equal_a_per_instance_reference_bitwise(synth_tasks):
    s = synth_tasks
    m, p, hs = s["model"], s["packs"], s["heads"]
    link = dict(side=s["side"], token_vocab=s["tv"], tokenizer=TOKENIZER)
    got = {
        "coltype": eval_column_types(m, hs["coltype"], p, s["coltype"]),
        "relations": eval_relations(m, hs["relations"], p, s["relations"]),
        "linking": eval_linking(m, hs["linking"], p, s["linking_eval"], **link),
        "rowpop": eval_row_population(m, p, s["rowpop"], 96),
        "fill": eval_cell_filling(m, p, s["fill"]),
        "schema": eval_schema(m, hs["schema"], p, s["schema"], s["headers"], s["tv"], 96),
    }
    for task, report in got.items():
        assert report["metrics"] == _reference_metrics(task, s), task
        assert report["n_instances"] == len(s[task if task != "linking" else "linking_eval"])
    reweighted = eval_linking(m, hs["linking"], p, s["linking_eval"], reweight=True, **link)
    assert reweighted["metrics"] == _reference_metrics("linking", s, reweight=True)
    assert reweighted["metrics"] != got["linking"]["metrics"]  # the margin changed some choices


def test_eval_linking_encodes_each_table_once(synth_tasks, monkeypatch):
    import tabrep.encoder as E
    import tabrep.tasks as T

    s = synth_tasks
    encoded = []
    real = T.encode_batch

    def counting(seqs, *args, **kwargs):
        encoded.extend(seq.table_id for seq in seqs)
        assert len(seqs) == 1 or sum(len(seq) for seq in seqs) <= E.PACK_ROWS
        return real(seqs, *args, **kwargs)

    monkeypatch.setattr(T, "encode_batch", counting)
    link = dict(side=s["side"], token_vocab=s["tv"], tokenizer=TOKENIZER)
    eval_linking(s["model"], s["heads"]["linking"], s["packs"], s["linking_eval"], **link)
    tables = {i.pack for i in s["linking_eval"]}
    assert len(s["linking_eval"]) > 2 * len(tables)
    assert sorted(encoded) == sorted(s["packs"][k].seq.table_id for k in tables)


@pytest.mark.parametrize("task", ["coltype", "linking", "rowpop", "schema"])
def test_forward_gives_the_same_scores_in_several_packs_as_in_one(synth_tasks, monkeypatch, task):
    import tabrep.encoder as E
    import tabrep.tasks as T

    s = synth_tasks
    m, p, hs = s["model"], s["packs"], s["heads"]
    insts = s[task if task != "linking" else "linking_eval"]
    spec = {
        "coltype": lambda: T._column_type_spec(m, hs["coltype"], p),
        "linking": lambda: T._linking_spec(m, hs["linking"], p, insts, s["side"], s["tv"], TOKENIZER),
        "rowpop": lambda: T._row_population_spec(m, p, insts, 96),
        "schema": lambda: T._schema_spec(m, hs["schema"], p, insts, s["headers"], s["tv"], 96),
    }[task]()
    packs = []
    real = T.encode_batch

    def counting(seqs, *args, **kwargs):
        packs.append(len(seqs))
        return real(seqs, *args, **kwargs)

    monkeypatch.setattr(T, "encode_batch", counting)
    one = T.forward(insts, spec)
    assert len(packs) == 1
    packs.clear()
    monkeypatch.setattr(E, "PACK_ROWS", 1)  # every sequence in a pack of its own
    several = T.forward(insts, spec)
    assert len(packs) > 1 and set(packs) == {1}
    assert [a.tobytes() for a in several] == [a.tobytes() for a in one]


def test_eval_cell_filling_encodes_each_table_once(synth_tasks, monkeypatch):
    import tabrep.pretrain as P

    s = synth_tasks
    encoded = []
    real = P.encode

    def counting(seqs, *args, **kwargs):
        enc = real(seqs, *args, **kwargs)
        encoded.extend((seq.table_id, bool(enc.h._parents)) for seq in seqs)
        return enc

    monkeypatch.setattr(P, "encode", counting)
    eval_cell_filling(s["model"], s["packs"], s["fill"])
    tables = {i.pack for i in s["fill"]}
    assert len(s["fill"]) > 2 * len(tables)
    assert sorted(encoded) == sorted((s["packs"][k].seq.table_id, False) for k in tables)  # once each, no tape


def test_eval_cell_filling_logits_match_a_full_encode_of_each_masked_copy(synth_tasks, monkeypatch):
    import tabrep.tasks as T

    s = synth_tasks
    scored = []
    real = T.entity_logits

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        scored.append(out.data[0])
        return out

    monkeypatch.setattr(T, "entity_logits", recording)
    eval_cell_filling(s["model"], s["packs"], s["fill"])
    # instances come table by table, so scoring them grouped by table keeps their order
    assert [i.pack for i in s["fill"]] == sorted(i.pack for i in s["fill"])
    assert len(scored) == len(s["fill"])
    for inst, got in zip(s["fill"], scored):
        want = _reference_logits("fill", inst, s).data[0]
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()
        assert got.argmax() == want.argmax()


def test_evaluation_builds_no_tape(synth_tasks, monkeypatch):
    import tabrep.tasks as T

    s = synth_tasks
    m, p, hs = s["model"], s["packs"], s["heads"]
    taped = []
    real = T.encode_batch

    def recording(seqs, *args, **kwargs):
        h = real(seqs, *args, **kwargs)
        taped.append(bool(h._parents))
        return h

    monkeypatch.setattr(T, "encode_batch", recording)
    eval_column_types(m, hs["coltype"], p, s["coltype"])
    eval_relations(m, hs["relations"], p, s["relations"])
    eval_linking(m, hs["linking"], p, s["linking_eval"], side=s["side"], token_vocab=s["tv"], tokenizer=TOKENIZER)
    eval_row_population(m, p, s["rowpop"], 96)
    eval_cell_filling(m, p, s["fill"])
    eval_schema(m, hs["schema"], p, s["schema"], s["headers"], s["tv"], 96)
    assert taped and not any(taped)


def _train(task, s, settings, instances=None):
    """Fine-tune one task of the synthetic fixture, on its instances or the
    given ones; returns the epoch losses."""
    m, p, hs, inst = s["model"], s["packs"], s["heads"], s[task] if instances is None else instances
    if task == "coltype":
        return train_column_types(m, hs["coltype"], p, inst, settings, s["n_types"])
    if task == "relations":
        return train_relations(m, hs["relations"], p, inst, settings, s["n_rels"])
    if task == "linking":
        return train_linking(m, hs["linking"], p, inst, s["side"], s["tv"], TOKENIZER, settings)
    if task == "rowpop":
        return train_row_population(m, p, inst, settings, 96)
    return train_schema(m, hs["schema"], p, inst, s["headers"], s["tv"], settings, 96)


FINETUNED = ["coltype", "relations", "linking", "rowpop", "schema"]
# a step's op nodes: the two-block encoder's 39, then the head's, one node
# per summary part (segment_mean) and per affine map, entry matrix block or loss
NODES = {"coltype": 39 + 5, "relations": 39 + 7, "linking": 39 + 7, "rowpop": 39 + 6, "schema": 39 + 3}


@pytest.mark.parametrize("task", FINETUNED)
def test_a_finetune_step_has_the_same_op_nodes_at_any_batch_size(synth_tasks, monkeypatch, task):
    s = synth_tasks
    # a batch without any entity element embeds with 8 nodes fewer; only the
    # schema probes can lack one (their one entity is the table's topic), so
    # they are trained on the tables that have a topic
    instances = [i for i in s[task] if task != "schema" or s["packs"][i.pack].indexed.topic is not None]
    assert len(instances) > 2
    counts = {}
    descend = nm.descend

    def counting(loss, opt, where):
        counts.setdefault(batch_size, []).append(sum(node._backward is not None for node in nm._topo_order(loss)))
        return descend(loss, opt, where)

    monkeypatch.setattr(nm, "descend", counting)
    for batch_size in (2, 8):
        _train(task, s, FinetuneSettings(lr0=0.0, epochs=1, batch_size=batch_size, seed=4), instances)
    assert len(counts[2]) == -(-len(instances) // 2) and len(counts[8]) == -(-len(instances) // 8)
    assert set(counts[2]) == set(counts[8]) == {NODES[task]}


def _evaluate(task, s):
    m, p, hs = s["model"], s["packs"], s["heads"]
    if task == "coltype":
        return eval_column_types(m, hs["coltype"], p, s["coltype"])
    if task == "relations":
        return eval_relations(m, hs["relations"], p, s["relations"])
    if task == "linking":
        return eval_linking(m, hs["linking"], p, s["linking_eval"], side=s["side"], token_vocab=s["tv"], tokenizer=TOKENIZER)
    if task == "rowpop":
        return eval_row_population(m, p, s["rowpop"], 96)
    return eval_schema(m, hs["schema"], p, s["schema"], s["headers"], s["tv"], 96)


@pytest.mark.parametrize("task", FINETUNED)
def test_batched_scores_equal_a_per_instance_reference(synth_tasks, monkeypatch, task):
    import tabrep.tasks as T

    s = synth_tasks
    scored = []
    real = T.forward

    def recording(instances, spec, *args, **kwargs):
        out = real(instances, spec, *args, **kwargs)
        scored.extend(zip(instances, out))
        return out

    monkeypatch.setattr(T, "forward", recording)
    _evaluate(task, s)
    assert len(scored) == len(s["linking_eval" if task == "linking" else task])
    # Not bitwise: OpenBLAS sums a product's terms in another order for a
    # product of one row (gemv) or a few rows than for many, and the batch
    # projects B rows where the reference projects one. A reordered sum of
    # k float32 terms moves by at most about k * 2**-24 of their magnitudes;
    # the widest products here have k = 4d = 32 (measured: at most 5e-7).
    for inst, got in scored:
        want = _reference_logits(task, inst, s).data[0]
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


def _probe_suffix(task):
    return {"rowpop": "#rowpop", "schema": "#schema"}.get(task, "")


@pytest.mark.parametrize("task", FINETUNED)
def test_finetune_builds_each_visibility_matrix_once(synth_tasks, monkeypatch, task):
    import tabrep.encoding as E

    # freshly linearized packs: the fixture's sequences keep the matrices
    # other tests built
    packs = [TablePack(p.processed, p.indexed, linearize(p.indexed, 96)) for p in synth_tasks["packs"]]
    s = {**synth_tasks, "packs": packs}
    built = []
    real = E.build_visibility

    def counting(seq):
        built.append(seq.table_id)
        return real(seq)

    monkeypatch.setattr(E, "build_visibility", counting)
    _train(task, s, FinetuneSettings(lr0=0.0, epochs=3, batch_size=4, seed=5))
    # one matrix per distinct sequence, over every epoch (and, for row
    # population, the forward pass that sets the offset); rowpop and schema
    # instances each read a probe of their own table
    want = sorted({s["packs"][i.pack].seq.table_id + _probe_suffix(task) for i in s[task]})
    assert sorted(built) == want


@pytest.mark.parametrize("task", FINETUNED)
def test_encode_batch_runs_the_last_block_at_the_rows_the_heads_read(synth_tasks, monkeypatch, task):
    import tabrep.tasks as T

    s = synth_tasks
    header_ids = {h: s["tv"].ids(h.split()) for h in s["headers"]}
    calls = []
    real = T.encode_batch

    def recording(seqs, *args, rows=None, **kwargs):
        calls.append(([seq.table_id for seq in seqs], [len(seq) for seq in seqs], rows))
        return real(seqs, *args, rows=rows, **kwargs)

    def read_rows(inst):
        """Positions the instance's head reads in its sequence, found afresh."""
        pack = s["packs"][inst.pack]
        if task == "coltype":
            return np.concatenate(column_rows(pack.seq, inst.col))
        if task == "relations":
            return np.concatenate(column_rows(pack.seq, inst.subj_col) + column_rows(pack.seq, inst.obj_col))
        if task == "linking":
            return np.array([cell_position(linking_sequence(pack), inst.row, inst.col)])
        if task == "rowpop":
            return np.array([row_population_sequence(pack, inst.seeds, 96)[1]])
        return np.array([schema_sequence(pack, inst.seeds, header_ids, 96)[1]])

    monkeypatch.setattr(T, "encode_batch", recording)
    # one batch holds every instance, so each call (and each of the forward
    # calls that set the row population offset) encodes all the readers of
    # its sequences
    readers = {}
    for inst in s[task]:
        readers.setdefault(s["packs"][inst.pack].seq.table_id + _probe_suffix(task), []).append(inst)
    _train(task, s, FinetuneSettings(lr0=0.0, epochs=1, batch_size=len(s[task]), seed=6))
    assert calls
    for tables, lens, rows in calls:
        starts = np.cumsum([0] + lens[:-1])
        want = np.concatenate([at + read_rows(inst) for table, at in zip(tables, starts) for inst in readers[table]])
        np.testing.assert_array_equal(rows, np.unique(want))
