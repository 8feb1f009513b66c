import math
import re

import numpy as np
import pytest

from helpers import reference_generate_synthetic
from prefrl.data import (InteractionLog, UserSequence, generate_synthetic, load_catalog,
                         load_interactions, split_log, write_catalog, write_interactions)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadCatalog:
    def test_three_row_file(self, tmp_path):
        p = tmp_path / "cat.csv"
        write_lines(p, ["id,title,artist", "0,Song A,X", "1,Song B,Y", "2,Song C,Z"])
        catalog = load_catalog(p)
        assert catalog.num_items == 3
        assert catalog[1].attribute("title") == "Song B"
        assert catalog.attribute_names == ("title", "artist")

    def test_id_gap(self, tmp_path):
        p = tmp_path / "cat.csv"
        write_lines(p, ["id,title", "0,A", "2,C"])
        with pytest.raises(ValueError, match="id gap at 1"):
            load_catalog(p)

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "cat.csv"
        write_lines(p, ["id,title", "0,A", "0,B"])
        with pytest.raises(ValueError, match="line 3.*duplicate id 0"):
            load_catalog(p)

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "cat.csv"
        write_lines(p, ["id,title", "0,A", "not-an-int,B"])
        with pytest.raises(ValueError, match="line 3"):
            load_catalog(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_catalog(tmp_path / "nope.csv")

    def test_empty_attributes_rejected(self, tmp_path):
        p = tmp_path / "cat.csv"
        write_lines(p, ["id,title", "0,A", "1,"])
        with pytest.raises(ValueError, match="line 3.*nonempty attribute"):
            load_catalog(p)

    def test_quoted_commas_roundtrip(self, tmp_path):
        catalog, _, _ = generate_synthetic(3, 4, 2, 2, seed=0)
        items = list(catalog.items)
        patched = items[0].attributes[0][0], "last, first"
        p = tmp_path / "cat.csv"
        write_lines(p, ["id,title,style", '0,"last, first",jazz', "1,B,pop",
                        "2,C,folk", "3,D,rock"])
        loaded = load_catalog(p)
        assert loaded[0].attribute("title") == "last, first"
        out = tmp_path / "cat2.csv"
        write_catalog(loaded, out)
        assert load_catalog(out) == loaded

    def test_lastfm_scale_catalog(self, tmp_path):
        catalog, _, _ = generate_synthetic(2, 18_297, 2, 2, seed=1)
        p = tmp_path / "big.csv"
        write_catalog(catalog, p)
        assert load_catalog(p).num_items == 18_297


class TestLoadInteractions:
    @pytest.fixture
    def catalog(self, tmp_path):
        p = tmp_path / "cat.csv"
        write_lines(p, ["id,title", "0,A", "1,B", "2,C", "3,D"])
        return load_catalog(p)

    def test_single_user_sequence(self, tmp_path, catalog):
        p = tmp_path / "inter.csv"
        write_lines(p, ["user_id,item_id,timestamp", "u1,0,3", "u1,2,1", "u1,3,2", "u1,1,4"])
        log = load_interactions(p, catalog)
        assert log.num_sequences == 1
        assert log.sequences[0].items == (2, 3, 0, 1)  # ordered by timestamp
        assert log.sequences[0].timestamps == (1, 2, 3, 4)

    def test_unknown_item_names_line(self, tmp_path, catalog):
        p = tmp_path / "inter.csv"
        write_lines(p, ["user_id,item_id,timestamp", "u1,0,1", "u1,9,2"])
        with pytest.raises(ValueError, match="line 3.*unknown item id 9"):
            load_interactions(p, catalog)

    def test_unparseable_timestamp(self, tmp_path, catalog):
        p = tmp_path / "inter.csv"
        write_lines(p, ["user_id,item_id,timestamp", "u1,0,yesterday"])
        with pytest.raises(ValueError, match="line 2.*timestamp"):
            load_interactions(p, catalog)

    def test_short_sequences_dropped_with_count(self, tmp_path, catalog):
        p = tmp_path / "inter.csv"
        write_lines(p, ["user_id,item_id,timestamp", "u1,0,1", "u1,1,2", "u2,2,1"])
        log = load_interactions(p, catalog)
        assert log.num_sequences == 1
        assert log.num_dropped_short == 1

    def test_industry_scale_sequence_count(self, tmp_path):
        _, log, _ = generate_synthetic(10_935, 40, 6, 2, seed=2)
        assert log.num_sequences == 10_935



def load_world_file(what, path):
    if what == "catalog":
        return load_catalog(path)
    return load_interactions(path, generate_synthetic(2, 4, 2, 2, seed=0)[0])


class TestLoaderMessages:
    """Both world loaders refuse a bad file with one message naming it."""

    @pytest.mark.parametrize("what", ["catalog", "interactions"])
    def test_a_missing_file_is_named(self, tmp_path, what):
        p = tmp_path / "nope.csv"
        with pytest.raises(FileNotFoundError, match=f"^{re.escape(f'{what} file not found: {p}')}$"):
            load_world_file(what, p)

    @pytest.mark.parametrize("what", ["catalog", "interactions"])
    def test_an_empty_file_is_named(self, tmp_path, what):
        p = tmp_path / "empty.csv"
        p.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{p}: empty {what} file')}$"):
            load_world_file(what, p)

    @pytest.mark.parametrize("what, header, expected", [
        ("catalog", "name,title", "id,<attr1>,..."),
        ("catalog", "id", "id,<attr1>,..."),
        ("interactions", "user,item,time", "user_id,item_id,timestamp")])
    def test_a_bad_header_is_named_at_line_1(self, tmp_path, what, header, expected):
        p = tmp_path / "bad.csv"
        write_lines(p, [header, "0,1,2"])
        message = f"{p}: line 1: header must be '{expected}'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_world_file(what, p)

    @pytest.mark.parametrize("what, lines, message", [
        ("catalog", ["id,title", "0,A", "1,B,extra"], "line 3: expected 2 fields, got 3"),
        ("catalog", ["id,title,style", "0"], "line 2: expected 3 fields, got 1"),
        ("interactions", ["user_id,item_id,timestamp", "u1,0,1", "u1,1"],
         "line 3: expected 3 fields, got 2")])
    def test_a_row_with_the_wrong_field_count_is_named(self, tmp_path, what, lines, message):
        p = tmp_path / "rows.csv"
        write_lines(p, lines)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{p}: {message}')}$"):
            load_world_file(what, p)

class TestSplit:
    def make_log(self, n):
        return InteractionLog(tuple(
            UserSequence(f"u{i}", (0, 1), (0, 1)) for i in range(n)))

    def test_eighty_twenty(self):
        train, test = split_log(self.make_log(10), 0.8, seed=0)
        assert (train.num_sequences, test.num_sequences) == (8, 2)

    def test_floor_rounding(self):
        train, test = split_log(self.make_log(5), 0.8, seed=0)
        assert (train.num_sequences, test.num_sequences) == (4, 1)

    def test_deterministic(self):
        log = self.make_log(20)
        a = split_log(log, 0.8, seed=7)
        b = split_log(log, 0.8, seed=7)
        assert a == b

    def test_disjoint_union(self):
        log = self.make_log(13)
        train, test = split_log(log, 0.6, seed=3)
        train_users = {s.user_id for s in train.sequences}
        test_users = {s.user_id for s in test.sequences}
        assert not train_users & test_users
        assert train_users | test_users == {s.user_id for s in log.sequences}

    def test_fraction_validation(self):
        log = self.make_log(4)
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                split_log(log, bad, seed=0)
        with pytest.raises(ValueError):
            split_log(InteractionLog(()), 0.5, seed=0)


class TestGenerateSynthetic:
    def test_shapes(self):
        catalog, log, truth = generate_synthetic(10, 50, 8, 4, seed=7)
        assert catalog.num_items == 50
        assert log.num_sequences == 10
        assert all(len(s) == 8 for s in log.sequences)
        assert truth.user_latents.shape == (10, 4)
        assert truth.item_latents.shape == (50, 4)

    def test_bitwise_determinism(self):
        a = generate_synthetic(6, 20, 5, 3, seed=11)
        b = generate_synthetic(6, 20, 5, 3, seed=11)
        assert a[1] == b[1]
        assert np.array_equal(a[2].user_latents, b[2].user_latents)
        assert a[0] == b[0]

    def test_zero_noise_matches_exhaustive_top_items(self):
        catalog, log, truth = generate_synthetic(8, 60, 6, 4, seed=13, noise_scale=0.0)
        for u, seq in enumerate(log.sequences):
            scores = truth.item_latents @ truth.user_latents[u]
            expected = tuple(int(i) for i in np.argsort(-scores, kind="stable")[:6])
            assert seq.items == expected
            # top-1 really is the argmax over every item
            assert scores[seq.items[0]] == scores.max()

    # (num_users, num_items, seq_len, d_lat, noise_scale): the default world,
    # every size at its floor, a sequence of every item, no noise (the stable
    # sort breaks the ties), a wider latent and a large world
    @pytest.mark.parametrize("shape", [(30, 30, 6, 4, 0.05), (2, 2, 2, 2, 0.05),
                                       (7, 9, 9, 3, 0.05), (12, 40, 8, 4, 0.0),
                                       (10, 25, 5, 8, 0.05), (200, 300, 20, 4, 0.05)])
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_the_reference_world(self, shape, seed):
        *sizes, noise = shape
        catalog, log, truth = generate_synthetic(*sizes, seed=seed, noise_scale=noise)
        ref_catalog, ref_log, ref_truth = reference_generate_synthetic(*sizes, seed=seed,
                                                                       noise_scale=noise)
        assert catalog.items == ref_catalog.items
        assert catalog.attribute_names == ref_catalog.attribute_names
        assert log == ref_log
        assert np.array_equal(truth.user_latents, ref_truth.user_latents)
        assert np.array_equal(truth.item_latents, ref_truth.item_latents)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_synthetic(1, 10, 4, 4, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(5, 3, 4, 4, seed=0)  # seq_len > num_items

    @pytest.mark.parametrize("noise", [math.nan, math.inf, -1.0])
    def test_a_noise_scale_that_is_not_finite_or_is_negative_is_refused(self, noise):
        with pytest.raises(ValueError, match=r"^\[data\] noise_scale must be finite and >= 0, "
                                             rf"got {noise!r}$"):
            generate_synthetic(5, 10, 4, 3, seed=0, noise_scale=noise)

    def test_roundtrip_through_files(self, tmp_path):
        catalog, log, _ = generate_synthetic(5, 15, 4, 3, seed=17)
        cat_p, int_p = tmp_path / "cat.csv", tmp_path / "inter.csv"
        write_catalog(catalog, cat_p)
        write_interactions(log, int_p)
        catalog2 = load_catalog(cat_p)
        log2 = load_interactions(int_p, catalog2)
        assert catalog2 == catalog
        assert log2.sequences == log.sequences
