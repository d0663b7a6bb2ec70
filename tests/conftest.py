import numpy as np

from tabrep.corpus import IndexedCell, IndexedTable


def make_indexed_table(
    rng: np.random.Generator,
    n_rows: int,
    n_cols: int,
    n_tokens: int = 40,
    n_entities: int = 30,
    caption_len: int = 3,
    with_topic: bool = False,
    cell_density: float = 1.0,
    subject_col: int | None = 0,
    table_id: str = "t",
) -> IndexedTable:
    """Random but well-formed table for encoder and masking tests."""
    def ids(k):
        return rng.integers(4, n_tokens, size=k).astype(np.int64)

    cells = []
    for r in range(n_rows):
        for c in range(n_cols):
            if rng.random() > cell_density:
                continue
            cells.append(
                IndexedCell(
                    row=r,
                    col=c,
                    entity_id=int(rng.integers(3, n_entities)),
                    mention_ids=ids(int(rng.integers(1, 4))),
                )
            )
    topic = (int(rng.integers(3, n_entities)), ids(2)) if with_topic else None
    return IndexedTable(
        table_id=table_id,
        caption_ids=ids(caption_len),
        header_ids=[ids(int(rng.integers(1, 3))) for _ in range(n_cols)],
        headers_norm=[f"h{c}" for c in range(n_cols)],
        n_rows=n_rows,
        n_cols=n_cols,
        cells=cells,
        topic=topic,
        subject_col=subject_col,
    )
