import itertools

import numpy as np
import pytest

from decint import css, gf2, interface
from decint.css import CssCode
from decint.tableau import Tableau, random_stabilizer_state


@pytest.fixture(scope="module")
def c422():
    return css.c422()


@pytest.fixture(scope="module")
def steane():
    return css.steane_code()


def bits(*rows: str) -> np.ndarray:
    """A 0/1 matrix from '01' row strings."""
    return np.array([[int(ch) for ch in row] for row in rows], np.uint8)


def brute_sector_distance(h_ker: np.ndarray, h_stab: np.ndarray) -> int:
    """Oracle: enumerate all vectors, min weight in ker(h_ker) \\ rowspace(h_stab)."""
    n = h_ker.shape[1]
    best = n + 1
    for bits in itertools.product([0, 1], repeat=n):
        v = np.array(bits, dtype=np.uint8)
        w = int(v.sum())
        if w == 0 or w >= best:
            continue
        if gf2.mul_bits(h_ker, v).any():
            continue
        if gf2.row_space_contains(h_stab, v):
            continue
        best = w
    return best


def reduced_weight(code: CssCode, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Per row of the (trials, n) X and Z parts, the larger of their
    stabilizer-reduced weights, each from the one coset search."""
    wx = gf2.coset_min_weight(code.x_stabilizer_basis(), x)
    wz = gf2.coset_min_weight(code.z_stabilizer_basis(), z)
    assert wx.exact and wz.exact
    return np.maximum(wx.weight, wz.weight)


class TestValidate:
    def test_c422_all_pass(self, c422):
        rep = c422.validate()
        assert rep.passed, str(rep)
        assert c422.m == 2

    def test_nonorthogonal_checks_fail(self):
        h = bits("10")
        code = CssCode(h, h, bits("01"), bits("01"))
        rep = code.validate()
        assert not rep.passed
        assert any(c.name == "hx_hz_orthogonal" for c in rep.failures())

    def test_steane_all_pass(self, steane):
        rep = steane.validate()
        assert rep.passed, str(rep)
        assert steane.m == 1
        assert gf2.rank(steane.hx) == 3 and gf2.rank(steane.hz) == 3

    def test_trivial_code(self):
        code = css.trivial_code()
        assert code.validate().passed
        assert (code.n, code.m) == (1, 1)


class TestReadOnlyMatrices:
    def test_builtin_code_matrices_not_writeable(self):
        for family in css.BUILTIN_FAMILIES.values():
            for code in family().levels:
                for m in (code.hx, code.hz, code.lx, code.lz):
                    assert m.dtype == np.uint8 and m.ndim == 2 and m.shape[1] == code.n
                    if m.size:
                        with pytest.raises(ValueError):
                            m[0, 0] ^= 1

    def test_codes_copy_their_matrices(self):
        h = bits("1111")
        code = CssCode.from_checks(h, h)
        h[0, 0] = 0
        assert code.hx[0, 0] == 1 and code.hz[0, 0] == 1
        with pytest.raises(ValueError, match="2-D"):
            CssCode(h[0], h, code.lx, code.lz)


class TestReducedWeight:
    def test_identity(self, c422):
        zero = np.zeros((1, 4), np.uint8)
        assert reduced_weight(c422, zero, zero).tolist() == [0]

    def test_full_x_is_stabilizer(self, c422):
        assert reduced_weight(c422, np.ones((1, 4), np.uint8), np.zeros((1, 4), np.uint8)).tolist() == [0]

    def test_weight_three_reduces_to_one(self, c422):
        x = np.array([[1, 1, 1, 0]], np.uint8)
        assert reduced_weight(c422, x, np.zeros((1, 4), np.uint8)).tolist() == [1]

    def test_zero_on_whole_stabilizer_group(self, steane):
        # Exhaustive over the 2^6 stabilizer group elements.
        bx = steane.x_stabilizer_basis()
        bz = steane.z_stabilizer_basis()
        combos = np.array(list(itertools.product([0, 1], repeat=len(bx) + len(bz))), np.uint8)
        x = gf2.mul_bits(combos[:, : len(bx)], bx)
        z = gf2.mul_bits(combos[:, len(bx) :], bz)
        assert len(combos) == 64 and not reduced_weight(steane, x, z).any()

    def test_invariant_under_stabilizer_multiplication(self, steane):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 2, (20, 7), dtype=np.uint8)
        z = rng.integers(0, 2, (20, 7), dtype=np.uint8)
        s_x = steane.x_stabilizer_basis()[rng.integers(0, 3, 20)]
        s_z = steane.z_stabilizer_basis()[rng.integers(0, 3, 20)]
        assert np.array_equal(reduced_weight(steane, x, z), reduced_weight(steane, x ^ s_x, z ^ s_z))


class TestMinDistance:
    def test_trivial(self):
        assert css.trivial_code().min_distance() == (1, True)

    def test_c422(self, c422):
        assert c422.min_distance() == (2, True)
        assert brute_sector_distance(c422.hx, c422.hz) == 2

    def test_steane(self, steane):
        assert steane.min_distance() == (3, True)
        assert brute_sector_distance(steane.hx, steane.hz) == 3

    @pytest.mark.parametrize("name", sorted(css.BUILTIN_FAMILIES))
    def test_builtin_family_distances_match_a_fresh_search(self, name):
        # The builtin families record their distances instead of searching on load.
        for code in css.BUILTIN_FAMILIES[name]().levels:
            fresh = CssCode(code.hx, code.hz, code.lx, code.lz)
            assert code.min_distance() == fresh.min_distance()

    def test_inexact_above_the_enumeration_cap(self, c422, monkeypatch):
        # A kernel larger than MAX_DISTANCE_ENUM gives an upper value, flagged
        # inexact, and the family check then skips that level's distance.
        def family_checks(code):
            fam = css.CodeFamily(levels=(css.trivial_code(), code), alpha=0.4, beta=0.125)
            return [c.name for c in fam.validate().checks]

        assert "distance_r2" in family_checks(CssCode(c422.hx, c422.hz, c422.lx, c422.lz))
        monkeypatch.setattr(css, "MAX_DISTANCE_ENUM", 4)
        fresh = CssCode(c422.hx, c422.hz, c422.lx, c422.lz)
        assert fresh.min_distance()[1] is False
        checks = family_checks(fresh)
        assert "rate_r2" in checks and "distance_r2" not in checks

    def test_detectability_below_distance(self, steane):
        # No non-stabilizer Pauli of weight < d commutes with all checks.
        d = steane.min_distance()[0]
        for support in itertools.chain.from_iterable(
            itertools.combinations(range(7), w) for w in range(1, d)
        ):
            for kinds in itertools.product("XZY", repeat=len(support)):
                x = np.zeros(7, dtype=np.uint8)
                z = np.zeros(7, dtype=np.uint8)
                for q, k in zip(support, kinds):
                    x[q] = k in "XY"
                    z[q] = k in "ZY"
                commutes = (
                    not gf2.mul_bits(steane.hz, x).any()
                    and not gf2.mul_bits(steane.hx, z).any()
                )
                if commutes:
                    assert gf2.row_space_contains(steane.hx, x)
                    assert gf2.row_space_contains(steane.hz, z)


def encode_basis(code: CssCode, u) -> Tableau:
    """|u_L> through the one encoder."""
    logical = Tableau.zero_state(list(range(len(u))))
    logical.apply_pauli_on(logical.labels, u, [0] * len(u))
    return css.encoded_tableau((code,), logical, range(code.n))


class TestEncodeState:
    def test_trivial_zero(self):
        t = encode_basis(css.trivial_code(), [0])
        assert t.measure_z(0) == (0, True)

    def test_c422_stabilizers(self, c422):
        t = encode_basis(c422, [0, 0])
        ones = np.ones(4, dtype=np.uint8)
        zeros = np.zeros(4, dtype=np.uint8)
        assert t.expectation_z(ones, zeros) == 0  # XXXX
        assert t.expectation_z(zeros, ones) == 0  # ZZZZ
        for j in range(2):
            lz = c422.lz[j]
            assert t.expectation_z(zeros, lz) == 0

    def test_steane_logical_one(self, steane):
        t = encode_basis(steane, [1])
        lz = steane.lz[0]
        assert t.expectation_z(np.zeros(7, np.uint8), lz) == 1

    @pytest.mark.parametrize("u", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_c422_syndrome_zero_and_logical_signs(self, c422, u):
        t = encode_basis(c422, u)
        for row in c422.hx:
            assert t.expectation_z(row, np.zeros(4, np.uint8)) == 0
        for row in c422.hz:
            assert t.expectation_z(np.zeros(4, np.uint8), row) == 0
        for j in range(2):
            assert t.expectation_z(np.zeros(4, np.uint8), c422.lz[j]) == u[j]


def _lift(lx: np.ndarray, lz: np.ndarray, x_bits, z_bits) -> tuple[np.ndarray, np.ndarray, int]:
    """Reference lift of the logical Pauli X^x Z^z (Y = iXZ): the Hermitian Pauli
    i^ys prod_j X(lx[j])^x_j Z(lz[j])^z_j and its sign bit, for ys = x.z.

    Moving each X factor left past the Z factors before it gives the product
    i^g times i^(X.Z) X^X Z^Z, g = 2 sum_{a<b} z_a x_b lz[a].lx[b] - X.Z.
    """
    x_bits, z_bits = (np.asarray(b, np.int64) for b in (x_bits, z_bits))
    x, z = gf2.mul_bits(x_bits.astype(np.uint8), lx), gf2.mul_bits(z_bits.astype(np.uint8), lz)
    overlaps = lz.astype(np.int64) @ lx.T.astype(np.int64)
    phase = int(x_bits @ z_bits) + 2 * int(z_bits @ np.triu(overlaps, 1) @ x_bits) - int(x.astype(np.int64) @ z)
    assert phase % 2 == 0
    return x, z, phase // 2 % 2


def _block_diag(mats) -> np.ndarray:
    out = np.zeros((sum(len(a) for a in mats), sum(a.shape[1] for a in mats)), np.uint8)
    r = c = 0
    for a in mats:
        out[r : r + len(a), c : c + a.shape[1]] = a
        r, c = r + len(a), c + a.shape[1]
    return out


def assert_encodes(got: Tableau, codes, logical: Tableau):
    """`got` is the lift of `logical` onto blocks of `codes`: each block's X and Z
    stabilizer basis with + signs and each logical generator lifted through the
    block-diagonal representatives. These n generators are independent, and
    each, with its sign per trial, must be deterministic in `got`."""
    joined = CssCode(*(_block_diag([getattr(c, k) for c in codes]) for k in ("hx", "hz", "lx", "lz")))
    zero = np.zeros(joined.n, np.uint8)
    gens = [(row, zero, 0) for row in joined.x_stabilizer_basis()]
    gens += [(zero, row, 0) for row in joined.z_stabilizer_basis()]
    for x, z, sign in zip(logical.xs, logical.zs, np.moveaxis(logical.signs, -1, 0)):
        lx, lz, s = _lift(joined.lx, joined.lz, x, z)
        gens.append((lx, lz, sign ^ s))
    assert gf2.rank(np.array([np.concatenate([x, z]) for x, z, _ in gens])) == joined.n == got.n
    for x, z, sign in gens:
        outcome = got.expectation_z(x, z)
        assert outcome is not None
        np.testing.assert_array_equal(outcome, sign)


def hamming_family() -> css.CodeFamily:
    """Trivial, [[15,2,3]] and [[15,4,3]]: the 4x15 Hamming checks as H_X = H_Z, rate-adjusted."""
    h = np.array([[j >> b & 1 for j in range(1, 16)] for b in range(4)], np.uint8)
    return css.build_family_rate_adjusted([CssCode.from_checks(h, h)], alpha=0.1, c1=1.0, beta=0.1)


FAMILIES = {"toy": css.toy_family, "steane": css.steane_family, "hamming": hamming_family}
ENCODER_CODES = ["toy:1", "toy:2", "toy:3", "toy:4", "steane:2", "hamming:2", "hamming:3", "hgp58"]


def encoder_code(key: str) -> CssCode:
    """Level r of a family as "family:r", or HGP(Hamming [7,4], Hamming [7,4]) = [[58,16,3]]."""
    if key == "hgp58":
        return css.build_hgp(css.HAMMING_743, css.HAMMING_743)
    family, r = key.split(":")
    return FAMILIES[family]().level(int(r))


def random_logical(m: int, seed: int, trials: int = 0) -> Tableau:
    """A seeded random logical state, or a batch of it under `trials` random Paulis."""
    rng = np.random.default_rng(seed)
    logical = random_stabilizer_state(list(range(m)), rng)
    if trials:
        logical.apply_pauli_on(logical.labels, *rng.integers(0, 2, (2, trials, m), dtype=np.uint8))
    return logical


class TestEncodingCircuit:
    @pytest.mark.parametrize("key", ENCODER_CODES)
    def test_matches_the_lift(self, key):
        code = encoder_code(key)
        labels = [f"q{i}" for i in range(code.n)]
        for seed, trials in [(0, 0), (1, 0), (2, 5), (3, 5)]:
            logical = random_logical(code.m, seed, trials)
            got = css.encoded_tableau((code,), logical, labels)
            assert got.labels == labels and got.signs.shape == logical.signs.shape[:-1] + (code.n,)
            assert_encodes(got, (code,), logical)

    def test_logical_network_with_a_late_pivot(self):
        # A = [[1,0,0],[1,0,1],[0,1,0]]: row 1 has its first 1 left of the
        # diagonal, so the network must take its pivot fix from the right.
        lx = bits("100", "001", "110")
        none = np.zeros((0, 3), np.uint8)
        code = CssCode(none, none, lx, gf2.inverse(lx).T.copy())
        assert code.validate().passed
        for seed in range(4):
            logical = random_logical(code.m, seed, 3)
            assert_encodes(css.encoded_tableau((code,), logical, range(3)), (code,), logical)

    @pytest.mark.parametrize("key", ["toy:3", "hamming:3", "hgp58"])
    def test_rebased_logicals(self, key):
        # L_X re-based by a random invertible matrix, L_Z re-dualized.
        code = encoder_code(key)
        rng = np.random.default_rng(11)
        for _ in range(3):
            while gf2.rank(b := rng.integers(0, 2, (code.m, code.m), dtype=np.uint8)) < code.m:
                pass
            lx, lz = gf2.mul_bits(b, code.lx), gf2.mul_bits(gf2.inverse(b).T, code.lz)
            rebased = CssCode(code.hx, code.hz, lx, lz)
            assert rebased.validate().passed
            logical = random_logical(code.m, int(rng.integers(100)), 3)
            assert_encodes(css.encoded_tableau((rebased,), logical, range(code.n)), (rebased,), logical)

    @pytest.mark.parametrize("key", ENCODER_CODES)
    def test_gates_are_init0_h_cnot(self, key):
        code = encoder_code(key)
        wires = [f"w{i}" for i in range(code.n)]
        circ, entry = css.encoding_circuit(code, wires)
        gates = [g for layer in circ.layers for g in layer]
        assert {g.name for g in gates} <= {"init0", "h", "cnot"}
        assert circ.wires == wires and len(entry) == len(set(entry)) == code.m
        assert sorted(g.wires[0] for g in gates if g.name == "init0") == sorted(set(wires) - set(entry))
        assert css.encoding_circuit(code, tuple(wires)) == (circ, entry)  # cached per (code, wires)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_bell_resource(self, family):
        fam = FAMILIES[family]()
        for r in range(2, fam.depth + 1):
            for r_prime in range(1, r):
                plan = interface.build_gamma(fam, r, r_prime)
                m = plan.code_r.m
                bell = Tableau.zero_state(list(range(2 * m)))
                for j in range(m):
                    bell.apply_h(j)
                    bell.apply_cnot(j, m + j)
                got = plan.resource_tableau()
                assert got.labels == list(plan.a_wires + plan.b_wires)
                assert_encodes(got, (plan.code_r,) + (plan.code_rp,) * plan.blocks, bell)


class TestEncodedTableauMemo:
    """`encoded_tableau` against the reference lift; its circuits are cached, its states fresh."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_direct_construction(self, c422, seed):
        logical = random_stabilizer_state([0, 1], np.random.default_rng(seed))
        labels = [f"q{i}" for i in range(4)]
        first = css.encoded_tableau((c422,), logical, labels)
        second = css.encoded_tableau((c422,), logical, labels)  # through the cached circuit
        assert first.labels == second.labels == labels
        assert_encodes(first, (c422,), logical)
        assert second.same_state(first)

    def test_each_call_returns_a_fresh_copy(self, steane):
        logical = Tableau.zero_state([0])
        first = css.encoded_tableau((steane,), logical, range(7))
        first.apply_pauli_on([0], [1], [0])
        second = css.encoded_tableau((steane,), logical, range(7))
        assert second is not first and not first.same_state(second)
        assert_encodes(second, (steane,), logical)
        assert logical.same_state(Tableau.zero_state([0]))

    def test_key_holds_signs_and_labels(self, steane):
        zero = Tableau.zero_state([0])
        one = zero.copy()
        one.apply_pauli_on([0], [1], [0])
        lz = steane.lz[0]
        assert css.encoded_tableau((steane,), zero, range(7)).expectation_z(np.zeros(7, np.uint8), lz) == 0
        assert css.encoded_tableau((steane,), one, range(7)).expectation_z(np.zeros(7, np.uint8), lz) == 1
        assert css.encoded_tableau((steane,), zero, "abcdefg").labels == list("abcdefg")

    def test_sign_batch_encodes_every_trial(self, steane):
        # Trial 0 holds |0>, trial 1 holds |1>: one encoded state per trial.
        batch = Tableau.zero_state([0])
        batch.signs = np.array([[0], [1]], np.uint8)
        got = css.encoded_tableau((steane,), batch, range(7))
        assert got.signs.shape == (2, 7)
        lz = steane.lz[0]
        np.testing.assert_array_equal(got.expectation_z(np.zeros(7, np.uint8), lz), [0, 1])

    def test_blocks_sit_on_adjacent_wires(self, c422, steane):
        # A product logical state encodes to the product of its blocks.
        first = random_stabilizer_state([0, 1], np.random.default_rng(2))
        second = Tableau.zero_state([2])
        second.apply_pauli_on([2], [1], [0])
        logical = first.copy()
        logical.extend(second)
        got = css.encoded_tableau((c422, steane), logical, range(11))
        want = css.encoded_tableau((c422,), first, range(4))
        want.extend(css.encoded_tableau((steane,), second, range(4, 11)))
        assert got.same_state(want)
        assert_encodes(got, (c422, steane), logical)

    def test_rejects_mismatched_blocks(self, c422):
        with pytest.raises(ValueError, match="logical count"):
            css.encoded_tableau((c422,), Tableau.zero_state([0]), range(4))
        with pytest.raises(ValueError, match="5 labels for blocks of 4 wires"):
            css.encoded_tableau((c422,), Tableau.zero_state([0, 1]), range(5))


class TestLiftLogical:
    """The reference lift `_lift` itself."""

    def test_lift_x_is_representative(self, c422):
        x, z, s = _lift(c422.lx, c422.lz, np.array([1, 0]), np.array([0, 0]))
        assert np.array_equal(x, c422.lx[0])
        assert not z.any() and s == 0

    def test_lift_y_hermitian(self, steane):
        x, z, s = _lift(steane.lx, steane.lz, np.array([1]), np.array([1]))
        assert np.array_equal(x, steane.lx[0])
        assert np.array_equal(z, steane.lz[0])
        assert s in (0, 1)


class TestHgp:
    def test_two_bit_repetition(self):
        h = bits("11")
        code = css.build_hgp(h, h)
        assert not gf2.mul_bits(code.hx, code.hz.T).any()
        assert code.validate().passed
        assert code.m == code.n - gf2.rank(code.hx) - gf2.rank(code.hz)

    def test_three_bit_repetition_toric_like(self):
        h = bits("110", "011")
        code = css.build_hgp(h, h)
        assert code.validate().passed
        assert code.m == 1

    def test_toy_level_codes(self):
        c3 = css.build_hgp(bits("111"), bits("111"))
        assert (c3.n, c3.m) == (10, 4)
        assert c3.min_distance() == (2, True)
        c4 = css.build_hgp(bits("111"), bits("11111"))
        assert (c4.n, c4.m) == (16, 8)
        assert c4.validate().passed


class TestFamilies:
    def test_toy_family_valid(self):
        fam = css.toy_family()
        rep = fam.validate()
        assert rep.passed, "\n".join(str(c) for c in rep.failures())
        assert [c.m for c in fam.levels] == [1, 2, 4, 8]

    def test_steane_family_valid(self):
        rep = css.steane_family().validate()
        assert rep.passed, "\n".join(str(c) for c in rep.failures())

    def test_rate_adjust_identity_on_powers_of_two(self):
        fam = css.toy_family()
        base = [fam.level(2), fam.level(3), fam.level(4)]
        adjusted = css.build_family_rate_adjusted(base, alpha=0.4, c1=2.0)
        assert [c.m for c in adjusted.levels] == [1, 2, 4, 8]
        for got, want in zip(adjusted.levels[1:], base):
            assert np.array_equal(got.hx, want.hx) and np.array_equal(got.hz, want.hz)

    def test_rate_adjust_freezes_odd_m(self):
        # Base code with m = 3: freeze one logical to reach 2^1.
        h1 = bits("110", "011")
        h2 = bits("1111")
        base3 = css.build_hgp(h1, h2)
        assert base3.m == 3
        big = css.build_hgp(bits("111"), bits("11111"))
        adjusted = css.build_family_rate_adjusted([base3, big], alpha=0.2, c1=2.0)
        lvl2 = adjusted.level(2)
        assert lvl2.m == 2 and lvl2.n == base3.n
        assert not gf2.mul_bits(lvl2.hx, lvl2.hz.T).any()
        assert lvl2.validate().passed
        assert gf2.rank(lvl2.hz) == gf2.rank(base3.hz) + 1

    def test_freeze_preserves_orthogonality(self):
        code = css.build_hgp(bits("111"), bits("111"))
        frozen = css.freeze_logicals(code, 2)
        assert not gf2.mul_bits(frozen.hx, frozen.hz.T).any()
        assert frozen.validate().passed

    def test_rate_adjust_rejects_bad_base(self):
        fam = css.toy_family()
        with pytest.raises(ValueError):
            css.build_family_rate_adjusted([fam.level(3), fam.level(2)], alpha=0.4, c1=2.0)


class TestSerialization:
    def test_code_roundtrip(self, steane):
        text = css.code_to_text(steane)
        back = css.code_from_text(text, name="steane")
        for tag in ("hx", "hz", "lx", "lz"):
            assert np.array_equal(getattr(back, tag), getattr(steane, tag))

    def test_family_roundtrip(self, tmp_path):
        fam = css.toy_family()
        css.save_family(fam, tmp_path / "fam")
        back = css.load_family(tmp_path / "fam")
        assert back.depth == fam.depth
        assert back.alpha == fam.alpha and back.r0 == fam.r0
        for a, b in zip(back.levels, fam.levels):
            for tag in ("hx", "hz", "lx", "lz"):
                assert np.array_equal(getattr(a, tag), getattr(b, tag))

    def test_corrupt_family_detected(self, tmp_path):
        fam = css.toy_family()
        css.save_family(fam, tmp_path / "fam")
        target = tmp_path / "fam" / "level_2.txt"
        text = target.read_text().replace("1111", "1011", 1)
        target.write_text(text)
        back = css.load_family(tmp_path / "fam")
        assert not back.validate().passed
