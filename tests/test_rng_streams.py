"""Tests for deterministic seed derivation."""

from repro.rng.streams import derive_seed, make_generator


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(2017, "a", "b") == derive_seed(2017, "a", "b")

    def test_labels_matter(self):
        assert derive_seed(2017, "a") != derive_seed(2017, "b")

    def test_root_matters(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_order_matters(self):
        assert derive_seed(1, "a", "b") != derive_seed(1, "b", "a")

    def test_integer_labels(self):
        assert derive_seed(1, 5) == derive_seed(1, 5)
        assert derive_seed(1, 5) != derive_seed(1, 6)

    def test_positive_63_bit(self):
        for label in range(100):
            seed = derive_seed(7, label)
            assert 0 <= seed < 1 << 63

    def test_no_label_path_collision(self):
        # ("ab",) vs ("a", "b") must differ thanks to the separator.
        assert derive_seed(1, "ab") != derive_seed(1, "a", "b")


class TestGenerators:
    def test_generator_reproducible(self):
        a = make_generator(11, "x")
        b = make_generator(11, "x")
        assert float(a.random()) == float(b.random())
