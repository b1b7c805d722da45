"""Tests for grids, boxes and object classifiers."""

import pytest
from hypothesis import given, strategies as st

from repro.core.geometry import (
    BOUNDARY,
    INSIDE,
    OUTSIDE,
    Box,
    Grid,
    box_classifier,
    circle_classifier,
    polygon_classifier,
)


class TestGrid:
    def test_basic_properties(self):
        g = Grid(2, 3)
        assert g.side == 8
        assert g.total_bits == 6
        assert g.npixels == 64

    def test_3d(self):
        g = Grid(3, 2)
        assert g.side == 4
        assert g.total_bits == 6
        assert g.npixels == 64

    def test_whole_space(self):
        assert Grid(2, 3).whole_space() == Box(((0, 7), (0, 7)))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            Grid(0, 3)
        with pytest.raises(ValueError):
            Grid(2, -1)

    def test_contains_point(self):
        g = Grid(2, 3)
        assert g.contains_point((0, 0))
        assert g.contains_point((7, 7))
        assert not g.contains_point((8, 0))
        assert not g.contains_point((0, -1))
        assert not g.contains_point((1, 2, 3))

    def test_validate_point(self):
        with pytest.raises(ValueError):
            Grid(2, 3).validate_point((9, 0))

    def test_zvalue(self):
        g = Grid(2, 3)
        assert g.zvalue((3, 5)).bits == 27

    def test_region_box_roundtrip(self):
        g = Grid(2, 3)
        from repro.core.zvalue import ZValue

        for text in ("", "0", "01", "001", "011011"):
            z = ZValue.from_string(text)
            assert g.element_of_box(g.region_box(z)) == z

    def test_element_of_box_rejects_non_dyadic(self):
        g = Grid(2, 3)
        with pytest.raises(ValueError):
            g.element_of_box(Box(((0, 2), (0, 7))))  # extent 3
        with pytest.raises(ValueError):
            g.element_of_box(Box(((1, 2), (0, 7))))  # unaligned


class TestBox:
    def test_basic(self):
        b = Box(((1, 3), (0, 4)))
        assert b.ndims == 2
        assert b.sizes == (3, 5)
        assert b.volume == 15
        assert b.low_corner == (1, 0)
        assert b.high_corner == (3, 4)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            Box(((3, 1),))

    def test_from_corner_and_size(self):
        b = Box.from_corner_and_size((1, 0), (3, 5))
        assert b == Box(((1, 3), (0, 4)))
        with pytest.raises(ValueError):
            Box.from_corner_and_size((0,), (0,))

    def test_contains_point(self):
        b = Box(((1, 3), (0, 4)))
        assert b.contains_point((1, 0))
        assert b.contains_point((3, 4))
        assert not b.contains_point((0, 0))
        assert not b.contains_point((3, 5))
        assert not b.contains_point((1,))

    def test_contains_box(self):
        outer = Box(((0, 7), (0, 7)))
        inner = Box(((1, 3), (0, 4)))
        assert outer.contains_box(inner)
        assert not inner.contains_box(outer)
        assert inner.contains_box(inner)

    def test_intersects_and_intersection(self):
        a = Box(((0, 4), (0, 4)))
        b = Box(((3, 7), (2, 9)))
        assert a.intersects(b)
        assert a.intersection(b) == Box(((3, 4), (2, 4)))
        c = Box(((5, 7), (5, 7)))
        assert not a.intersects(c)
        with pytest.raises(ValueError):
            a.intersection(c)

    def test_touching_boxes_intersect(self):
        # Inclusive bounds: sharing an edge cell means intersecting.
        a = Box(((0, 3),))
        b = Box(((3, 5),))
        assert a.intersects(b)
        b = Box(((4, 5),))
        assert not a.intersects(b)

    def test_clipped_to(self):
        a = Box(((0, 9), (0, 9)))
        space = Box(((0, 7), (0, 7)))
        assert a.clipped_to(space) == Box(((0, 7), (0, 7)))
        outside = Box(((8, 9), (8, 9)))
        assert outside.clipped_to(space) is None

    def test_grid_clip_is_clipped_to_whole_space(self):
        grid = Grid(2, 3)
        inside = Box(((1, 3), (0, 7)))
        assert grid.clip(inside) is inside  # a box that fits is not rebuilt
        for box in (Box(((-2, 9), (3, 12))), Box(((8, 9), (0, 1)))):
            assert grid.clip(box) == box.clipped_to(grid.whole_space())
        with pytest.raises(ValueError):
            grid.clip(Box(((0, 1),)))

    def test_translated(self):
        assert Box(((0, 1), (2, 3))).translated((5, -1)) == Box(
            ((5, 6), (1, 2))
        )

    def test_pixels(self):
        b = Box(((0, 1), (2, 3)))
        assert sorted(b.pixels()) == [(0, 2), (0, 3), (1, 2), (1, 3)]

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            Box(((0, 1),)).intersects(Box(((0, 1), (0, 1))))

    def test_str(self):
        assert "1..3" in str(Box(((1, 3),)))


class TestBoxClassifier:
    def test_three_cases(self):
        classify = box_classifier(Box(((2, 5), (2, 5))))
        assert classify(Box(((3, 4), (3, 4)))) is INSIDE
        assert classify(Box(((6, 7), (6, 7)))) is OUTSIDE
        assert classify(Box(((0, 3), (0, 3)))) is BOUNDARY

    def test_exactness_on_pixels(self):
        box = Box(((1, 3), (0, 4)))
        classify = box_classifier(box)
        for x in range(8):
            for y in range(8):
                pixel = Box(((x, x), (y, y)))
                expected = INSIDE if box.contains_point((x, y)) else OUTSIDE
                assert classify(pixel) is expected


class TestCircleClassifier:
    def test_pixel_exactness(self):
        classify = circle_classifier((8, 8), 5.0)
        for x in range(16):
            for y in range(16):
                pixel = Box(((x, x), (y, y)))
                inside = (x - 8) ** 2 + (y - 8) ** 2 <= 25
                expected = INSIDE if inside else OUTSIDE
                assert classify(pixel) is expected, (x, y)

    def test_region_soundness(self):
        # If a region is classified INSIDE every pixel must be inside;
        # OUTSIDE means every pixel outside.
        classify = circle_classifier((8, 8), 6.0)
        region = Box(((6, 9), (6, 9)))
        if classify(region) is INSIDE:
            for p in region.pixels():
                assert (p[0] - 8) ** 2 + (p[1] - 8) ** 2 <= 36

    def test_3d_ball(self):
        classify = circle_classifier((4, 4, 4), 2.0)
        assert classify(Box(((4, 4), (4, 4), (4, 4)))) is INSIDE
        assert classify(Box(((0, 0), (0, 0), (0, 0)))) is OUTSIDE


class TestPolygonClassifier:
    def test_triangle_pixels(self):
        # Right triangle with legs on the axes.
        classify = polygon_classifier([(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)])
        assert classify(Box(((2, 2), (2, 2)))) is INSIDE
        assert classify(Box(((9, 9), (9, 9)))) is OUTSIDE

    def test_region_boundary_detection(self):
        classify = polygon_classifier([(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)])
        # The hypotenuse crosses this region.
        assert classify(Box(((4, 6), (4, 6)))) is BOUNDARY

    def test_region_fully_outside(self):
        classify = polygon_classifier([(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)])
        assert classify(Box(((8, 11), (8, 11)))) is OUTSIDE

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            polygon_classifier([(0, 0), (1, 1)])

    def test_rejects_non_2d_region(self):
        classify = polygon_classifier([(0, 0), (4, 0), (0, 4)])
        with pytest.raises(ValueError):
            classify(Box(((0, 1), (0, 1), (0, 1))))

    def test_consistency_with_decomposition(self):
        # Decomposing via region classification must agree with the
        # per-pixel test (conservative regions only add splitting).
        from repro.core.decompose import decompose
        from repro.core.geometry import Grid

        grid = Grid(2, 4)
        vertices = [(1.0, 1.0), (12.0, 3.0), (9.0, 13.0), (2.0, 9.0)]
        classify = polygon_classifier(vertices)
        elements = decompose(grid, classify)
        covered = set()
        for z in elements:
            (xlo, xhi), (ylo, yhi) = z.region(2, 4)
            covered |= {
                (x, y)
                for x in range(xlo, xhi + 1)
                for y in range(ylo, yhi + 1)
            }
        expected = {
            (x, y)
            for x in range(16)
            for y in range(16)
            if classify(Box(((x, x), (y, y)))) is INSIDE
        }
        assert covered == expected


@given(st.data())
def test_box_intersection_model(data):
    """Box intersection agrees with the pixel-set model."""
    def draw_box():
        ranges = []
        for _ in range(2):
            a = data.draw(st.integers(0, 7))
            b = data.draw(st.integers(0, 7))
            ranges.append((min(a, b), max(a, b)))
        return Box(tuple(ranges))

    a, b = draw_box(), draw_box()
    pa = set(a.pixels())
    pb = set(b.pixels())
    assert a.intersects(b) == bool(pa & pb)
    if pa & pb:
        assert set(a.intersection(b).pixels()) == (pa & pb)
    assert a.contains_box(b) == (pb <= pa)
