import numpy as np
import pytest

from fuzzyloc.data import load_csv
from fuzzyloc.errors import InvalidInputError
from fuzzyloc import synth
from fuzzyloc.synth import beacon_positions, generate_synthetic, write_csv


class TestGenerate:
    def test_shapes_and_labels(self):
        data = generate_synthetic(n_rooms=4, per_room=5, n_beacons=3, noise_sd=0.1, seed=0)
        assert data.n_instances == 20
        assert data.n_features == 3
        assert data.feature_names == ("b1", "b2", "b3")
        assert sorted(set(data.labels.tolist())) == [1, 2, 3, 4]
        assert np.bincount(data.labels)[1:].tolist() == [5, 5, 5, 5]

    def test_same_seed_same_dataset(self):
        a = generate_synthetic(5, 4, 3, 0.5, seed=7)
        b = generate_synthetic(5, 4, 3, 0.5, seed=7)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = generate_synthetic(5, 4, 3, 0.5, seed=7)
        b = generate_synthetic(5, 4, 3, 0.5, seed=8)
        assert not np.array_equal(a.features, b.features)

    def test_beacons_span_the_corridor(self):
        assert beacon_positions(10, 5).tolist() == [1.0, 3.25, 5.5, 7.75, 10.0]

    def test_equidistant_rooms_read_identical_noiseless_signal(self):
        # beacon 2 of 3 sits at the corridor midpoint for 5 rooms
        data = generate_synthetic(n_rooms=5, per_room=1, n_beacons=3, noise_sd=0.0, seed=0)
        mid = data.features[:, 1]
        assert mid[0] == mid[4]  # rooms 1 and 5 both two units away
        assert mid[1] == mid[3]

    def test_noiseless_signal_is_the_path_loss_curve(self):
        data = generate_synthetic(n_rooms=4, per_room=1, n_beacons=2, noise_sd=0.0, seed=3)
        # beacon 1 at position 1: distances 0 (floored to 0.1), 1, 2, 3
        want = -10.0 * np.log10([0.1, 1.0, 2.0, 3.0])
        assert np.allclose(data.features[:, 0], want, rtol=0, atol=0)

    def test_mean_signal_decays_monotonically_with_distance(self):
        data = generate_synthetic(n_rooms=10, per_room=30, n_beacons=5, noise_sd=0.5, seed=42)
        positions = beacon_positions(10, 5)
        room_means = np.array(
            [data.features[data.labels == room].mean(axis=0) for room in range(1, 11)]
        )
        for b, pos in enumerate(positions):
            by_distance = sorted(
                (abs(room - pos), room_means[room - 1, b]) for room in range(1, 11)
            )
            # strictly farther rooms hear a strictly weaker mean signal
            for (d_near, m_near), (d_far, m_far) in zip(by_distance, by_distance[1:]):
                if d_far > d_near:
                    assert m_near > m_far

    def test_table_size_is_bounded(self, monkeypatch):
        assert 40 * 100 * 24 <= synth.MAX_CELLS <= 10**7  # a 40-room building fits
        monkeypatch.setattr(synth, "MAX_CELLS", 3 * 2 * 2)
        assert generate_synthetic(3, 2, 2, 0.5, seed=0).features.size == 12
        for sizes in [(4, 2, 2), (3, 3, 2), (3, 2, 3)]:
            with pytest.raises(InvalidInputError, match="exceed 12 cells"):
                generate_synthetic(*sizes, 0.5, seed=0)

    def test_size_validation(self):
        with pytest.raises(InvalidInputError):
            generate_synthetic(2, 5, 3, 0.1, seed=0)
        with pytest.raises(InvalidInputError):
            generate_synthetic(5, 5, 1, 0.1, seed=0)
        with pytest.raises(InvalidInputError):
            generate_synthetic(5, 0, 3, 0.1, seed=0)
        with pytest.raises(InvalidInputError):
            generate_synthetic(5, 5, 3, -0.1, seed=0)

    @pytest.mark.parametrize("sizes, named", [
        ((3.5, 2, 2, 0), "n_rooms must be an integer, got float"),
        ((3, 2.5, 2, 0), "per_room must be an integer, got float"),
        ((3, 2, 2.0, 0), "n_beacons must be an integer, got float"),
        ((3, 2, 2, 1.5), "seed must be an integer, got float"),
        ((3, 2, 2, -1), "seed must be >= 0, got -1"),
        ((3, 2, 2, 2**63), "seed must be <= 9223372036854775807, got 9223372036854775808"),
        ((3, True, 2, 0), "per_room must be an integer, got bool"),
        (("3", 2, 2, 0), "n_rooms must be an integer, got str"),
    ])
    def test_sizes_and_seed_are_integers(self, sizes, named):
        n_rooms, per_room, n_beacons, seed = sizes
        with pytest.raises(InvalidInputError, match=named):
            generate_synthetic(n_rooms, per_room, n_beacons, 0.5, seed)
        data = generate_synthetic(np.int64(3), np.int32(2), np.uint8(2), 0.5, np.int64(0))
        assert data.labels.tolist() == [1, 1, 2, 2, 3, 3]


class TestWriteCsv:
    def test_round_trips_through_load_csv_exactly(self, tmp_path):
        data = generate_synthetic(4, 3, 2, 0.5, seed=11)
        path = tmp_path / "synth.csv"
        write_csv(data, path)
        back = load_csv(str(path), "room", list(data.feature_names))
        assert np.array_equal(back.features, data.features)
        assert np.array_equal(back.labels, data.labels)

    def test_header_layout(self, tmp_path):
        data = generate_synthetic(3, 1, 2, 0.0, seed=0)
        path = tmp_path / "synth.csv"
        write_csv(data, path)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == "b1,b2,room"
