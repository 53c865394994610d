"""Unit tests for logical identifiers and the Figure 2/3 mapping."""

import pytest

from repro.core.identifiers import LogicalAddressSpace
from repro.geo.area import Area
from repro.geo.geometry import Point
from repro.geo.grid import VirtualCircleGrid
from repro.hypercube.labels import hamming_distance, label_to_bits


@pytest.fixture
def space_8x8_dim4(small_area):
    """The paper's running example: 8x8 VCs split into four 4-D hypercubes."""
    return LogicalAddressSpace(VirtualCircleGrid(small_area, 8, 8), dimension=4)


class TestConstruction:
    def test_figure2_example_block_structure(self, space_8x8_dim4):
        space = space_8x8_dim4
        assert space.block_cols == 4 and space.block_rows == 4
        assert space.mesh_cols == 2 and space.mesh_rows == 2
        assert space.hypercube_count() == 4

    def test_odd_dimension_blocks(self, small_area):
        grid = VirtualCircleGrid(small_area, 8, 8)
        space = LogicalAddressSpace(grid, dimension=3)
        assert space.block_cols == 4 and space.block_rows == 2
        assert space.hypercube_count() == 8

    def test_untileable_grid_rejected(self, small_area):
        grid = VirtualCircleGrid(small_area, 6, 8)
        with pytest.raises(ValueError):
            LogicalAddressSpace(grid, dimension=4)

    def test_invalid_dimension(self, small_area):
        grid = VirtualCircleGrid(small_area, 8, 8)
        with pytest.raises(ValueError):
            LogicalAddressSpace(grid, dimension=0)


class TestFigure3Mapping:
    def test_hnid_layout_matches_paper_figure3(self, space_8x8_dim4):
        """The HNID labels of a 4x4 block reproduce Figure 3 exactly."""
        expected_rows = [
            ["0000", "0001", "0100", "0101"],
            ["0010", "0011", "0110", "0111"],
            ["1000", "1001", "1100", "1101"],
            ["1010", "1011", "1110", "1111"],
        ]
        for row_idx, row in enumerate(expected_rows):
            for col_idx, bits in enumerate(row):
                hnid = space_8x8_dim4.hnid_of((col_idx, row_idx))
                assert label_to_bits(hnid, 4) == bits, (
                    f"cell ({col_idx},{row_idx}) expected {bits}, got {label_to_bits(hnid, 4)}"
                )

    def test_hnid_unique_within_block(self, space_8x8_dim4):
        labels = {space_8x8_dim4.hnid_of((c, r)) for c in range(4) for r in range(4)}
        assert labels == set(range(16))

    def test_vc_of_inverts_hnid_of(self, space_8x8_dim4):
        space = space_8x8_dim4
        for col in range(8):
            for row in range(8):
                address = space.address_of_vc((col, row))
                assert space.vc_of(address.hid, address.hnid) == (col, row)

    def test_geographically_adjacent_cells_in_same_block_are_close_in_hamming(self, space_8x8_dim4):
        # horizontally adjacent cells within a block differ in at most 2 bits
        # (they differ in the column coordinate only)
        space = space_8x8_dim4
        for row in range(4):
            for col in range(3):
                a = space.hnid_of((col, row))
                b = space.hnid_of((col + 1, row))
                assert 1 <= hamming_distance(a, b) <= 2


class TestMeshMapping:
    def test_mesh_coord_of(self, space_8x8_dim4):
        assert space_8x8_dim4.mesh_coord_of((0, 0)) == (0, 0)
        assert space_8x8_dim4.mesh_coord_of((5, 2)) == (1, 0)
        assert space_8x8_dim4.mesh_coord_of((3, 7)) == (0, 1)

    def test_hid_mnid_one_to_one(self, space_8x8_dim4):
        space = space_8x8_dim4
        seen = set()
        for mc in range(2):
            for mr in range(2):
                hid = space.hid_of_mesh((mc, mr))
                assert space.mesh_of_hid(hid) == (mc, mr)
                seen.add(hid)
        assert seen == {0, 1, 2, 3}

    def test_hid_out_of_range(self, space_8x8_dim4):
        with pytest.raises(ValueError):
            space_8x8_dim4.mesh_of_hid(4)
        with pytest.raises(ValueError):
            space_8x8_dim4.hid_of_mesh((2, 0))

    def test_vcs_of_hid(self, space_8x8_dim4):
        # the VCs of one hypercube are its HNIDs mapped back through vc_of
        vcs = {space_8x8_dim4.vc_of(0, hnid) for hnid in range(16)}
        assert len(vcs) == 16
        assert (0, 0) in vcs and (3, 3) in vcs and (4, 0) not in vcs
        assert all(space_8x8_dim4.address_of_vc(vc).hid == 0 for vc in vcs)

    def test_region_center(self, space_8x8_dim4):
        assert space_8x8_dim4.region_center(0) == Point(250.0, 250.0)
        assert space_8x8_dim4.region_center(3) == Point(750.0, 750.0)


class TestAddresses:
    def test_address_of_position(self, space_8x8_dim4):
        space = space_8x8_dim4
        address = space.address_of_vc(space.grid.coord_of(Point(10.0, 10.0)), chid=42)
        assert address.vc_coord == (0, 0)
        assert address.hid == 0
        assert address.hnid == 0
        assert address.mnid == (0, 0)
        assert address.chid == 42

    def test_address_bits(self, space_8x8_dim4):
        address = space_8x8_dim4.address_of_vc((2, 2))
        assert label_to_bits(address.hnid, 4) == "1100"

    def test_hnid_out_of_range_in_vc_of(self, space_8x8_dim4):
        with pytest.raises(ValueError):
            space_8x8_dim4.vc_of(0, 16)

    def test_vc_out_of_grid(self, space_8x8_dim4):
        with pytest.raises(ValueError):
            space_8x8_dim4.address_of_vc((8, 0))


class TestBorderClassification:
    def test_border_vcs_face_existing_neighbor_blocks(self, space_8x8_dim4):
        space = space_8x8_dim4
        # column 3 faces block (1, *); column 4 faces block (0, *)
        assert space.is_border_vc((3, 1))
        assert space.is_border_vc((4, 1))
        # the outer edge of the whole network is not a border
        assert not space.is_border_vc((0, 1))
        # interior of a block
        assert not space.is_border_vc((1, 1))

    def test_border_rows(self, space_8x8_dim4):
        assert space_8x8_dim4.is_border_vc((1, 3))
        assert space_8x8_dim4.is_border_vc((1, 4))
        assert not space_8x8_dim4.is_border_vc((1, 0))

    def test_corner_cell_of_inner_block_is_border(self, space_8x8_dim4):
        assert space_8x8_dim4.is_border_vc((3, 3))
        assert space_8x8_dim4.is_border_vc((4, 4))
