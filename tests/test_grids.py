import numpy as np
import pytest

from torsorcheck import ResolutionTooCoarse, ShapeMismatch, VerificationConfig, dbar_at_points
from torsorcheck.connections import (
    ConnectionForm,
    canonical_connection,
    check_eq_i,
    curvature,
    family_connection,
)
from torsorcheck.grids import (
    GridFunction,
    SeededDraws,
    dbar_fd,
    lattice_grid,
    measure_seam_jumps,
    seeded_coords,
)
from torsorcheck.torsors import act, obstruction, sigma_presentation
from torsorcheck.torus import ComplexTorus

from oracles import stencil_by_directions, stencil_two_calls


def roll_stencil(gf, rows):
    """Reference stencil: 2g np.roll central differences stacked, then one einsum.

    It pins dbar_fd's summation order: dbar_fd must reproduce it bit for bit.
    """
    n = gf.resolution
    vals = np.asarray(gf.values, dtype=complex)
    diffs = np.empty((2 * gf.torus.genus,) + vals.shape, dtype=complex)
    for d in range(diffs.shape[0]):
        fwd = np.roll(vals, -1, axis=d)
        bwd = np.roll(vals, 1, axis=d)
        if gf.seam_jumps is not None:
            fwd[(slice(None),) * d + (n - 1,)] += gf.seam_jumps[d]
            bwd[(slice(None),) * d + (0,)] -= gf.seam_jumps[d]
        diffs[d] = (fwd - bwd) * (n / 2.0)
    return np.einsum("kd,d...->...k", rows, diffs)


STENCIL_CASES = {
    "g1-square": ([[1.0, 1.0j]], 16),
    "g1-skew-odd": ([[1.0, 0.3 + 1.1j]], 9),
    "g2-diag": (np.hstack([np.eye(2), 1j * np.diag([1.0, 2.0])]), 6),
    "g2-full": (np.hstack([np.eye(2), [[0.2 + 1j, 0.1 + 0.3j], [0.1 + 0.3j, -0.4 + 2j]]]), 5),
    "g3-diag": (np.hstack([np.eye(3), 1j * np.diag([1.0, 1.5, 2.0])]), 4),
}


def curved(h):
    """z -> exp(i z) H + conj(z)**2: not affine, so every rounding of the stencil shows."""
    return lambda z: np.exp(1j * z) @ h + np.conj(z) ** 2


def node_values(torus, n, fn):
    """``fn`` at the grid nodes, without seam jumps: its period increments are not constant."""
    return GridFunction(torus, fn(torus.lift_of_coords(lattice_grid(n, 2 * torus.genus))))


def _interior(values, torus):
    """Restrict to nodes whose stencil does not wrap around the seam."""
    sl = tuple(slice(1, -1) for _ in range(2 * torus.genus))
    return values[sl]


class TestDbarBasics:
    def test_constant_annihilated(self, square_torus):
        gf = GridFunction.sample(square_torus, 16, lambda z: np.full(z.shape[:-1], 2.0 - 1.0j))
        assert np.max(np.abs(dbar_fd(gf).values)) <= 1e-12

    def test_antiholomorphic_linear(self, square_torus):
        gf = GridFunction.sample(square_torus, 16, lambda z: np.conj(z[..., 0]))
        assert np.max(np.abs(dbar_fd(gf).values[..., 0] - 1.0)) <= 1e-9

    def test_holomorphic_linear(self, square_torus):
        gf = GridFunction.sample(square_torus, 16, lambda z: z[..., 0])
        assert np.max(np.abs(dbar_fd(gf).values)) <= 1e-9

    def test_resolution_floor(self, square_torus):
        with pytest.raises(ResolutionTooCoarse):
            GridFunction.sample(square_torus, 3, lambda z: z[..., 0])

    def test_g2_mixed_affine_exact(self, g2_torus):
        coeff_z = np.array([0.3 - 1.0j, 2.0])
        coeff_zbar = np.array([1.5j, -0.7])

        def fn(z):
            return z @ coeff_z + np.conj(z) @ coeff_zbar

        gf = GridFunction.sample(g2_torus, 8, fn)
        assert np.max(np.abs(dbar_fd(gf).values - coeff_zbar)) <= 1e-9


class TestDbarAccuracy:
    def test_annihilates_holomorphic_quadratic(self, square_torus):
        gf = node_values(square_torus, 32, lambda z: z[..., 0] ** 2)
        interior = _interior(dbar_fd(gf).values, square_torus)
        assert np.max(np.abs(interior)) <= 1e-10

    def test_second_order_on_cubic(self, square_torus):
        errors = []
        for n in (16, 64):  # quadrupling the resolution
            gf = node_values(square_torus, n, lambda z: z[..., 0] ** 3)
            errors.append(np.max(np.abs(_interior(dbar_fd(gf).values, square_torus))))
        assert errors[0] / errors[1] >= 3.5

    def test_dbar_squared_vanishes_as_a_form(self, square_torus):
        # mixed second derivatives commute, so the wedge (antisymmetric) part
        # of the twice-differentiated coefficients must vanish to O(h^2)
        n = 32

        def fn(z):
            c = square_torus.lattice_coords(z)
            return np.exp(np.sin(2 * np.pi * c[..., 0]) + 1j * np.cos(2 * np.pi * c[..., 1]))

        second = dbar_fd(dbar_fd(GridFunction.sample(square_torus, n, fn)))
        antisym = second.values - np.swapaxes(second.values, -1, -2)
        assert np.max(np.abs(antisym)) <= 10.0 / n**2


class TestSeams:
    def test_constant_jump_handled_exactly(self, square_torus):
        gf = GridFunction.sample(square_torus, 16, lambda z: np.conj(z[..., 0]) + 0.3)
        assert np.allclose(gf.seam_jumps, [1.0, -1.0j], atol=1e-12)
        assert np.max(np.abs(dbar_fd(gf).values[..., 0] - 1.0)) <= 1e-9

    def test_nonconstant_jump_rejected(self, square_torus):
        with pytest.raises(ValueError):
            measure_seam_jumps(square_torus, lambda z: np.conj(z[..., 0]) ** 2)

    @pytest.mark.parametrize("beyond", [1.0, 1.2], ids=["both-base-points", "one-base-point"])
    def test_infinite_jump_rejected(self, square_torus, beyond):
        # finite on the cell, infinite one period away along the first direction:
        # at both base points inf - inf reads NaN, at one the tolerance reads inf
        def fn(z):
            c0 = square_torus.lattice_coords(z)[..., 0]
            return np.conj(z[..., 0]) + np.where(c0 >= beyond, np.inf, 0.0)

        with pytest.raises(ValueError, match="direction 0 is not finite"):
            measure_seam_jumps(square_torus, fn)
        with pytest.raises(ValueError, match="not finite"):
            GridFunction.sample(square_torus, 8, fn)


class TestStencilMatchesRollReference:
    @pytest.mark.parametrize("case", sorted(STENCIL_CASES))
    @pytest.mark.parametrize("with_jumps", [False, True])
    def test_bitwise_equal(self, case, with_jumps, rng):
        periods, n = STENCIL_CASES[case]
        torus = ComplexTorus(periods)
        g = torus.genus
        for value_shape in [(), (g,)]:
            shape = (n,) * (2 * g) + value_shape
            values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            jumps = None
            if with_jumps:
                jump_shape = (2 * g,) + value_shape
                jumps = rng.standard_normal(jump_shape) + 1j * rng.standard_normal(jump_shape)
            gf = GridFunction(torus, values, seam_jumps=jumps)
            assert np.array_equal(dbar_fd(gf).values, roll_stencil(gf, torus.dzbar_rows))


class TestPointPath:
    @pytest.mark.parametrize("case", sorted(STENCIL_CASES))
    @pytest.mark.parametrize("resolution", [4, 16, 1024])
    def test_exact_on_conj_z(self, case, resolution, rng):
        torus = ComplexTorus(STENCIL_CASES[case][0])
        g = torus.genus
        coords = 3.0 * rng.standard_normal((64, 2 * g))  # anywhere on the cover
        out = dbar_at_points(torus, np.conj, resolution, coords)
        assert out.shape == (64, g, g)
        assert np.max(np.abs(out - np.eye(g))) <= 1e-12

    @pytest.mark.parametrize("case", sorted(STENCIL_CASES))
    def test_exact_on_affine_covectors(self, case, rng):
        torus = ComplexTorus(STENCIL_CASES[case][0])
        g = torus.genus
        a, b, c = (rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
                   for _ in range(3))

        def covector(z):  # component j is sum_l z_l a[l, j] + zbar_l b[l, j] + c[0, j]
            return z @ a + np.conj(z) @ b + c[0]

        out = dbar_at_points(torus, covector, 8, rng.random((64, 2 * g)))
        assert out.shape == (64, g, g)
        assert np.max(np.abs(out - b.T)) <= 1e-12

    @pytest.mark.parametrize("case", sorted(STENCIL_CASES))
    def test_agrees_with_dbar_fd_at_nodes(self, case):
        periods, n = STENCIL_CASES[case]
        torus = ComplexTorus(periods)
        dims = 2 * torus.genus
        modes = np.arange(1, dims + 1)

        def fn(z):  # curved and periodic, plus conj(z) for constant seam jumps
            c = torus.lattice_coords(z)
            return np.exp(2j * np.pi * (c @ modes))[..., None] * 0.3 + np.conj(z)

        grid = dbar_fd(GridFunction.sample(torus, n, fn)).values
        nodes = lattice_grid(n, dims).reshape(-1, dims)
        points = dbar_at_points(torus, fn, n, nodes)
        assert np.max(np.abs(points - grid.reshape(points.shape))) <= 1e-12

    @pytest.mark.parametrize("case", sorted(STENCIL_CASES))
    def test_one_call_per_direction_on_stacked_points(self, case, rng):
        torus = ComplexTorus(STENCIL_CASES[case][0])
        g = torus.genus
        shapes = []

        def counting(z):
            shapes.append(z.shape)
            return np.conj(z)

        dbar_at_points(torus, counting, 8, rng.random((7, 2 * g)))
        assert shapes == [(2, 7, g)] * (2 * g)

    @pytest.mark.parametrize("demo", ["principal-g1", "principal-g2", "g3"])
    @pytest.mark.parametrize("resolution", [6, 16])
    def test_matches_two_call_reference_bitwise(self, demo, resolution, g3_datum):
        datum = g3_datum if demo == "g3" else VerificationConfig.demo(demo).datum
        family = family_connection(datum)
        for torus, fn in ((datum.torus, canonical_connection(datum).theta),
                          (datum.torus, curved(datum.hermitian)),
                          (family.datum.torus, family.theta)):
            stacked = dbar_at_points(torus, fn, resolution)
            reference = stencil_two_calls(torus, fn, resolution)
            assert stacked.shape == reference.shape
            assert stacked.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("demo", ["principal-g1", "principal-g2", "g3"])
    @pytest.mark.parametrize("resolution", [4, 16, 1024])
    def test_summation_order_moves_rounding_only(self, demo, resolution, g3_datum):
        # lifting once and contracting in one product moves the last bits: the gap to
        # the earlier order read at most 0.28 eps N max|fn| over these demos, N from 4
        # to 2**16 and four point sets, and 0.70 on the skewed tori of STENCIL_CASES
        datum = g3_datum if demo == "g3" else VerificationConfig.demo(demo).datum
        torus, fn = datum.torus, curved(datum.hermitian)
        gap = np.max(np.abs(dbar_at_points(torus, fn, resolution)
                            - stencil_by_directions(torus, fn, resolution)))
        size = np.max(np.abs(fn(torus.lift_of_coords(seeded_coords(torus)))))
        assert gap <= 1.0 * np.finfo(float).eps * resolution * size

    @pytest.mark.parametrize("demo", ["principal-g2", "g3"])
    def test_default_points_are_seeded_coords_bitwise(self, demo, g3_datum, rng):
        # the stencil holds the one default; curvature and obstruction pass None through
        datum = g3_datum if demo == "g3" else VerificationConfig.demo(demo).datum
        torus, n = datum.torus, 8
        coords = seeded_coords(torus)
        conn = canonical_connection(datum)
        assert dbar_at_points(torus, conn.theta, n).tobytes() == \
            dbar_at_points(torus, conn.theta, n, coords).tobytes()
        assert curvature(conn, n).tobytes() == curvature(conn, n, coords).tobytes()
        g = torus.genus
        a, b = (rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g)) for _ in range(2))
        moved = act(sigma_presentation(datum, n).zero_section(),
                    lambda z: np.exp(1j * z) @ a + np.conj(z) @ b)
        assert callable(moved.offset)
        assert obstruction(moved).tobytes() == obstruction(moved, coords).tobytes()

    def test_rejects_coarse_resolution_and_bad_coordinates(self, square_torus):
        with pytest.raises(ResolutionTooCoarse):
            dbar_at_points(square_torus, np.conj, 3, np.zeros((1, 2)))
        with pytest.raises(ShapeMismatch):
            dbar_at_points(square_torus, np.conj, 8, np.zeros((1, 3)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("reader", ["dbar_at_points", "curvature", "check_eq_i",
                                        "obstruction"])
    def test_non_finite_coordinates_rejected_before_any_call(self, principal_datum, reader, bad):
        # a NaN coordinate read a NaN cloud, and an infinite one warned in matmul
        calls = []

        def counted(z):
            calls.append(z)
            return np.conj(z)

        coords = np.array([[0.25, 0.5], [bad, 0.0]])
        with pytest.raises(ValueError, match="point coordinates must be finite"):
            if reader == "dbar_at_points":
                dbar_at_points(principal_datum.torus, counted, 16, coords)
            elif reader == "curvature":
                curvature(ConnectionForm(principal_datum, counted), 16, coords)
            elif reader == "check_eq_i":
                fam = family_connection(principal_datum)
                spied = ConnectionForm(fam.datum, lambda u: counted(fam.theta(u)), base=fam.base)
                check_eq_i(spied, np.zeros((1, 1)), 16, coords)
            else:
                section = act(sigma_presentation(principal_datum, 16).zero_section(), counted)
                obstruction(section, coords)
        assert calls == []


class TestGridFunction:
    def test_lattice_grid_shape(self):
        grid = lattice_grid(8, 2)
        assert grid.shape == (8, 8, 2)
        assert grid.max() < 1.0 and grid.min() == 0.0

    def test_rejects_nonfinite(self, square_torus):
        values = np.ones((8, 8))
        values[0, 0] = np.nan
        with pytest.raises(ValueError):
            GridFunction(square_torus, values)

    @pytest.mark.parametrize("jump", [np.inf, np.nan])
    def test_rejects_non_finite_seam_jumps(self, square_torus, jump):
        jumps = np.zeros((2, 1), dtype=complex)
        jumps[1, 0] = jump
        with pytest.raises(ValueError, match="seam jumps must be finite"):
            GridFunction(square_torus, np.zeros((8, 8, 1), dtype=complex), seam_jumps=jumps)


class TestSeededDraws:
    def test_same_seed_same_bits(self):
        first, second = SeededDraws(20250809, 4), SeededDraws(20250809, 4)
        assert first.random((5, 3)).tobytes() == second.random((5, 3)).tobytes()
        assert first.standard_normal(7).tobytes() == second.standard_normal(7).tobytes()

    def test_check_index_selects_the_stream(self):
        assert not np.array_equal(SeededDraws(7, 4).random(64), SeededDraws(7, 5).random(64))

    @pytest.mark.parametrize("shape", [6, (6,), (4, 3), (2, 3, 2)])
    def test_uniform_floats_of_the_requested_shape(self, shape):
        values = SeededDraws(1).random(shape)
        assert values.dtype == np.float64
        assert values.shape == ((shape,) if isinstance(shape, int) else shape)
        assert np.all((values >= 0.0) & (values < 1.0))

    def test_standard_normal_moments(self):
        values = SeededDraws(2, 997).standard_normal(10**5)
        assert values.dtype == np.float64 and values.shape == (10**5,)
        assert np.all(np.isfinite(values))
        assert abs(values.mean()) <= 0.02 and abs(values.var() - 1.0) <= 0.02
