"""Synthetic generators, BSG1 round trips, splits, and balancing."""

import hashlib

import numpy as np
import pytest

from ssmgraph import data
from ssmgraph.data import (Dataset, DatasetSpec, ParseError, SignalRecord,
                           collate, gen_correlation_task, gen_longrange_task,
                           generate, load_bsg1, marker_length, marker_template,
                           save_bsg1, stratified_split, undersample_majority)


def corr_spec(**kw):
    base = dict(kind="correlation", n_sensors=6, t_len=2048, size=30, seed=7)
    base.update(kw)
    return DatasetSpec(**base)


def long_spec(**kw):
    base = dict(kind="longrange", n_sensors=2, t_len=4096, size=30, seed=7)
    base.update(kw)
    return DatasetSpec(**base)


class TestCorrelationTask:
    def test_clique_correlation_in_active_half(self):
        ds = gen_correlation_task(corr_spec(size=20))
        clique = corr_spec().resolved_clique()
        half = 2048 // 2
        for rec in ds.records:
            if rec.y != 1:
                continue
            active = rec.x[:clique, half:, 0]
            for i in range(clique):
                for j in range(i + 1, clique):
                    rho = np.corrcoef(active[i], active[j])[0, 1]
                    assert rho > 0.8, f"clique corr {rho:.3f}"

    def test_class0_cross_correlations_small(self):
        ds = gen_correlation_task(corr_spec(size=16, t_len=2048))
        for rec in ds.records:
            if rec.y != 0:
                continue
            x = rec.x[:, -1000:, 0]
            corr = np.corrcoef(x)
            off = corr[~np.eye(corr.shape[0], dtype=bool)]
            assert np.all(np.abs(off) < 0.2), f"max |rho| {np.abs(off).max():.3f}"

    def test_marginals_match_between_classes(self):
        # clique sensors' variance must not leak the label
        ds = gen_correlation_task(corr_spec(size=200, t_len=512))
        half = 256
        by_class = {0: [], 1: []}
        for rec in ds.records:
            by_class[rec.y].append(rec.x[0, half:, 0].var())
        v0, v1 = np.mean(by_class[0]), np.mean(by_class[1])
        assert abs(v0 - v1) / v0 < 0.1

    def test_same_seed_identical_bytes(self):
        a = save_bsg1(gen_correlation_task(corr_spec()), None)
        b = save_bsg1(gen_correlation_task(corr_spec()), None)
        assert a == b

    def test_different_seed_differs(self):
        a = save_bsg1(gen_correlation_task(corr_spec(seed=1)), None)
        b = save_bsg1(gen_correlation_task(corr_spec(seed=2)), None)
        assert a != b


def ar1_loop(eps, phi):
    """Reference AR(1): one output array, stepped one timestep at a time."""
    out = np.empty_like(eps)
    out[..., 0] = eps[..., 0]
    scale = np.sqrt(1.0 - phi * phi)
    for t in range(1, eps.shape[-1]):
        out[..., t] = phi * out[..., t - 1] + scale * eps[..., t]
    return out


class TestAr1:
    @pytest.mark.parametrize("phi", [0.0, 0.6, 0.93, -0.5])
    @pytest.mark.parametrize("shape", [(1,), (5,), (3, 64), (2, 3, 257)])
    def test_bytes_equal_loop_reference(self, phi, shape):
        eps = np.random.default_rng([len(shape), shape[-1]]).normal(size=shape)
        ref = ar1_loop(eps, phi)
        assert data._ar1(eps.copy(), phi).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("spec, digest", [
        # sha256 of the record-at-a-time generator's output, from records'
        # float64 x bytes and labels
        (DatasetSpec(kind="correlation"),
         "76842b8cf101c34a0d261cdd0a026c0be371eeee7210265d5901bf4ddfdae07e"),
        (DatasetSpec(kind="correlation", n_sensors=3, t_len=5, size=3, seed=2,
                     clique_corr=0.5),
         "7d3cba29bbf5f4865f006589c47386d4c4d84fbccf5c1d39f177e953b9be6ed6"),
    ])
    def test_generated_bytes_unchanged(self, spec, digest):
        h = hashlib.sha256()
        for rec in generate(spec).records:
            h.update(rec.x.tobytes())
            h.update(np.int64(rec.y).tobytes())
        assert h.hexdigest() == digest


class TestLongrangeTask:
    def test_marker_region_is_one_percent(self):
        assert marker_length(4096) == 40
        ds = gen_longrange_task(long_spec(size=6))
        m_len = marker_length(4096)
        template = marker_template(m_len)
        for rec in ds.records:
            tail = rec.x[:, m_len:, 0]
            assert abs(tail.mean()) < 0.1  # tail is plain noise for both classes

    def test_matched_filter_oracle_separates(self):
        ds = gen_longrange_task(long_spec(size=60))
        m_len = marker_length(4096)
        template = marker_template(m_len)
        scores = np.array([rec.x[:, :m_len, 0].sum(axis=0) @ template for rec in ds.records])
        labels = np.array([rec.y for rec in ds.records])
        # brute-force pairwise AUROC
        pos, neg = scores[labels == 1], scores[labels == 0]
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        auroc = wins / (len(pos) * len(neg))
        assert auroc == 1.0

    def test_zero_amplitude_null_task(self):
        ds = gen_longrange_task(long_spec(size=100, marker_amplitude=0.0))
        m_len = marker_length(4096)
        template = marker_template(m_len)
        scores = np.array([rec.x[:, :m_len, 0].sum(axis=0) @ template for rec in ds.records])
        labels = np.array([rec.y for rec in ds.records])
        pos, neg = scores[labels == 1], scores[labels == 0]
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        auroc = wins / (len(pos) * len(neg))
        assert 0.3 < auroc < 0.7

    def test_same_seed_determinism(self):
        assert save_bsg1(generate(long_spec()), None) == save_bsg1(generate(long_spec()), None)


class TestBsg1:
    def test_empty_roundtrip(self, tmp_path):
        ds = Dataset(records=[], task="binary", n_classes=2)
        path = tmp_path / "empty.bsg1"
        save_bsg1(ds, path)
        loaded = load_bsg1(path)
        assert len(loaded) == 0

    def test_single_record_bitexact(self, tmp_path, rng):
        x = rng.normal(size=(3, 10, 2)).astype(np.float32).astype(np.float64)
        rec = SignalRecord(x=x, y=1, mask=np.ones(10, dtype=bool),
                           true_length=10, record_id="r0")
        ds = Dataset(records=[rec], task="binary", n_classes=2)
        path = tmp_path / "one.bsg1"
        raw1 = save_bsg1(ds, path)
        loaded = load_bsg1(path)
        assert save_bsg1(loaded, None) == raw1
        np.testing.assert_array_equal(loaded.records[0].x, x)
        assert loaded.records[0].y == 1

    def test_variable_lengths_padded(self, tmp_path, rng):
        recs = []
        for i, t in enumerate((8, 12)):
            x = np.zeros((2, 12, 1))
            x[:, :t] = rng.normal(size=(2, t, 1)).astype(np.float32)
            recs.append(SignalRecord(x=x, y=i % 2, mask=np.arange(12) < t,
                                     true_length=t, record_id=f"r{i}"))
        ds = Dataset(records=recs, task="binary", n_classes=2)
        path = tmp_path / "var.bsg1"
        save_bsg1(ds, path)
        loaded = load_bsg1(path)
        assert loaded.records[0].true_length == 8
        assert loaded.records[0].x.shape == (2, 12, 1)
        assert np.all(loaded.records[0].x[:, 8:] == 0)

    def test_multilabel_bitmask(self, tmp_path, rng):
        y = np.array([1, 0, 1, 1])
        x = rng.normal(size=(2, 6, 1)).astype(np.float32).astype(float)
        rec = SignalRecord(x=x, y=y, mask=np.ones(6, dtype=bool),
                           true_length=6, record_id="ml0")
        ds = Dataset(records=[rec], task="multilabel", n_classes=4)
        path = tmp_path / "ml.bsg1"
        save_bsg1(ds, path)
        loaded = load_bsg1(path)
        assert loaded.task == "multilabel"
        np.testing.assert_array_equal(loaded.records[0].y, y)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.bsg1"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ParseError, match="magic"):
            load_bsg1(p)

    def test_truncation_reports_offset(self, tmp_path, rng):
        ds = generate(corr_spec(size=2, t_len=64))
        p = tmp_path / "t.bsg1"
        raw = save_bsg1(ds, p)
        (tmp_path / "cut.bsg1").write_bytes(raw[:-9])
        with pytest.raises(ParseError, match="byte"):
            load_bsg1(tmp_path / "cut.bsg1")


class TestSplitsAndBalance:
    def test_stratified_proportions(self):
        ds = generate(corr_spec(size=100, t_len=64, class_balance=0.3))
        train, val, test = stratified_split(ds, [0.6, 0.2, 0.2], seed=0)
        assert len(train) + len(val) + len(test) == 100
        for part, frac in ((train, 0.6), (val, 0.2), (test, 0.2)):
            labels = part.class_indices()
            for c, total in ((1, 30), (0, 70)):
                expected = frac * total
                got = int((labels == c).sum())
                assert abs(got - expected) <= 1, (c, got, expected)

    def test_split_disjoint_and_complete(self):
        ds = generate(corr_spec(size=50, t_len=64))
        parts = stratified_split(ds, [0.5, 0.5], seed=1)
        ids = [r.record_id for p in parts for r in p.records]
        assert sorted(ids) == sorted(r.record_id for r in ds.records)
        assert len(set(ids)) == len(ids)

    def test_undersample_balances(self, rng):
        ds = generate(corr_spec(size=90, t_len=64, class_balance=0.2))
        balanced = undersample_majority(ds.records, rng)
        labels = np.array([r.y for r in balanced])
        assert (labels == 0).sum() == (labels == 1).sum()

    def test_collate_shapes(self):
        ds = generate(corr_spec(size=4, t_len=64))
        x, y, mask = collate(ds.records)
        assert x.shape == (4, 6, 64, 1)
        assert y.shape == (4,)
        assert mask.shape == (4, 64)


class TestRecordInvariants:
    def test_mask_must_match_true_length(self):
        with pytest.raises(ValueError):
            SignalRecord(x=np.zeros((1, 4, 1)), y=0,
                         mask=np.array([True, False, True, False]),
                         true_length=2, record_id="bad")

    def test_padding_must_be_zero(self):
        x = np.ones((1, 4, 1))
        with pytest.raises(ValueError):
            SignalRecord(x=x, y=0, mask=np.arange(4) < 2, true_length=2, record_id="bad")
