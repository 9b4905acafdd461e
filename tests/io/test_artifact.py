"""The ``repro-ground/1`` binary artifact layer: format and engine wiring."""

import json
import zlib

import pytest

from repro.api import Engine
from repro.datalog.database import Database
from repro.datalog.grounding import GroundProgram, GroundRule, AtomTable, ground
from repro.datalog.parser import parse_atom, parse_database, parse_program
from repro.errors import ArtifactError, GroundingError
from repro.io.artifact import (
    ARTIFACT_SCHEMA,
    dump_ground_program,
    load_artifact,
    program_fingerprint,
    save_ground_program,
)

GAME = "win(X) :- move(X, Y), not win(Y)."
BOARD = "move(1, 2). move(2, 1). move(2, 3)."


def _game(mode="relevant"):
    return ground(parse_program(GAME), parse_database(BOARD), mode=mode)


def _true_set(solution):
    return {str(a) for a in solution.true_atoms}


class TestRoundTrip:
    @pytest.mark.parametrize("mode", ["full", "relevant", "edb"])
    def test_identical_atoms_rules_and_index(self, mode):
        gp = _game(mode)
        art = load_artifact(dump_ground_program(gp))
        gp2 = art.ground_program
        assert gp2.mode == mode
        assert gp2.program == gp.program
        assert gp2.database == gp.database
        assert gp2.universe == gp.universe
        assert gp2.atom_count == gp.atom_count
        assert {gp.atoms.atom(i) for i in range(gp.atom_count)} == {
            gp2.atoms.atom(i) for i in range(gp2.atom_count)
        }
        # Dense ids are part of the format: the loaded program is id-for-id
        # identical, not merely isomorphic.
        for r1, r2 in zip(gp.rules, gp2.rules):
            assert (r1.head, r1.pos, r1.neg, r1.rule_index, r1.substitution) == (
                r2.head,
                r2.pos,
                r2.neg,
                r2.rule_index,
                r2.substitution,
            )
        i1, i2 = gp.index, gp2.index
        assert i1.pos_occ_t == i2.pos_occ_t
        assert i1.neg_occ_t == i2.neg_occ_t
        assert i1.rules_by_head_t == i2.rules_by_head_t
        assert i1.head_of_t == i2.head_of_t
        assert bytes(i1.edb_mask) == bytes(i2.edb_mask)
        assert i1.initial_status.tobytes() == i2.initial_status.tobytes()
        assert tuple(i1.initial_valued) == tuple(i2.initial_valued)

    @pytest.mark.parametrize("mode", ["full", "relevant", "edb"])
    def test_reserialization_is_byte_identical(self, mode):
        blob = dump_ground_program(_game(mode))
        assert dump_ground_program(load_artifact(blob).ground_program) == blob

    def test_hand_built_ground_program_serializes(self):
        # No compiled CSR emitter attached: the generic re-encode path.
        program = parse_program("p :- not q.")
        table = AtomTable()
        p, q = table.id_of(parse_atom("p")), table.id_of(parse_atom("q"))
        gp = GroundProgram(program, Database(), (), "full", table)
        gp.rules = [GroundRule(head=p, pos=(), neg=(q,), rule_index=0, substitution=())]
        art = load_artifact(dump_ground_program(gp))
        assert art.ground_program.atom_count == 2
        assert art.ground_program.rules[0].neg == (q,)
        warm = Engine(art.ground_program.program, ground_program=art.ground_program)
        assert _true_set(warm.solve("well_founded")) == {"p"}

    def test_atom_table_decodes_lazily(self):
        art = load_artifact(dump_ground_program(_game()))
        table = art.ground_program.atoms
        assert not table._built
        win1 = parse_atom("win(1)")
        assert table.atom(table.get(win1)) == win1  # get() forces the lookup maps
        assert table._built

    def test_save_is_atomic_and_loadable(self, tmp_path):
        target = tmp_path / "game.repro-ground"
        save_ground_program(_game(), target)
        assert load_artifact(target).ground_program.rule_count == _game().rule_count
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_pool_keeps_constant_types(self):
        # The integer 1 and the string "1" stay distinct constants through
        # a round trip, in the pool and in the atoms built on them.
        gp = ground(
            parse_program("p(X) :- q(X)."), parse_database('q(2). q("1"). q(1).'), mode="relevant"
        )
        pool = load_artifact(dump_ground_program(gp)).pool
        constants = [pool.constant(i) for i in range(len(pool))]
        assert sorted((type(c.value).__name__, str(c.value)) for c in constants) == [
            ("int", "1"),
            ("int", "2"),
            ("str", "1"),
        ]
        warm = Engine.from_artifact(dump_ground_program(gp))
        assert _true_set(warm.solve("well_founded")) == {
            'p("1")', "p(1)", "p(2)", 'q("1")', "q(1)", "q(2)"
        }


def _reframe(blob: bytes, edit) -> bytes:
    """Rebuild an artifact after ``edit(header, payload)``, with a fresh CRC."""
    header_len = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12 : 12 + header_len])
    payload = bytearray(blob[12 + header_len : -4])
    edit(header, payload)
    new_header = json.dumps(header, separators=(",", ":")).encode()
    crc = zlib.crc32(new_header + bytes(payload)) & 0xFFFFFFFF
    return (
        blob[:8]
        + len(new_header).to_bytes(4, "little")
        + new_header
        + bytes(payload)
        + crc.to_bytes(4, "little")
    )


class TestCorruption:
    def _blob(self):
        return dump_ground_program(_game())

    def test_short_read_truncations(self):
        blob = self._blob()
        for cut in (0, 4, 11, len(blob) // 2, len(blob) - 1):
            with pytest.raises(ArtifactError, match="short read|bad magic"):
                load_artifact(blob[:cut])

    def test_bad_magic(self):
        blob = self._blob()
        with pytest.raises(ArtifactError, match="bad magic"):
            load_artifact(b"NOTMAGIC" + blob[8:])

    def test_trailing_garbage(self):
        with pytest.raises(ArtifactError, match="trailing garbage"):
            load_artifact(self._blob() + b"\x00")

    def test_checksum_mismatch_on_payload_flip(self):
        blob = bytearray(self._blob())
        blob[-20] ^= 0xFF  # a payload byte near the end, before the CRC
        with pytest.raises(ArtifactError, match="checksum mismatch"):
            load_artifact(bytes(blob))

    def test_version_mismatch(self):
        def bump(header, payload):
            header["schema"] = "repro-ground/999"

        with pytest.raises(ArtifactError, match="version mismatch"):
            load_artifact(_reframe(self._blob(), bump))

    def test_tampered_counts_fail_consistency(self):
        def tamper(header, payload):
            header["counts"]["rules"] += 1

        with pytest.raises(ArtifactError):
            load_artifact(_reframe(self._blob(), tamper))

    def test_corrupt_artifact_file_is_an_error_and_left_in_place(self, tmp_path):
        path = tmp_path / "game.repro-ground"
        path.write_bytes(self._blob()[:40])
        with pytest.raises(ArtifactError):
            Engine.from_artifact(path)
        # Loading never deletes or rewrites what it was given.
        assert path.read_bytes() == self._blob()[:40]

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_artifact(tmp_path / "absent.repro-ground")

    def test_malformed_section_table_entries(self):
        # A CRC-valid artifact whose section table is structurally wrong
        # must fail as ArtifactError, never TypeError.
        blob = self._blob()
        header_len = int.from_bytes(blob[8:12], "little")
        header = json.loads(blob[12 : 12 + header_len])
        for bad_entry in (["heads", "i", "oops"], ["heads", "i", -1], ["heads", "i"], "heads"):
            tampered = json.loads(json.dumps(header))
            tampered["sections"][0] = bad_entry
            new_header = json.dumps(tampered, separators=(",", ":")).encode()
            payload = blob[12 + header_len : -4]
            crc = zlib.crc32(new_header + payload) & 0xFFFFFFFF
            rebuilt = (
                blob[:8]
                + len(new_header).to_bytes(4, "little")
                + new_header
                + payload
                + crc.to_bytes(4, "little")
            )
            with pytest.raises(ArtifactError, match="malformed section table"):
                load_artifact(rebuilt)

    def test_out_of_range_body_atom_id_rejected(self):
        # CRC-valid but inconsistent payload: a negative id in `pos` must
        # fail as ArtifactError, never silently index from the back.
        blob = self._blob()
        header_len = int.from_bytes(blob[8:12], "little")
        header = json.loads(blob[12 : 12 + header_len])
        payload = bytearray(blob[12 + header_len : -4])
        offset = 0
        for name, _, nbytes in header["sections"]:
            if name == "pos":
                assert nbytes >= 4
                payload[offset : offset + 4] = (-1).to_bytes(4, "little", signed=True)
                break
            offset += nbytes
        else:  # pragma: no cover - the section always exists
            pytest.fail("no pos section")
        header_blob = blob[12 : 12 + header_len]
        crc = zlib.crc32(header_blob + bytes(payload)) & 0xFFFFFFFF
        rebuilt = blob[: 12 + header_len] + bytes(payload) + crc.to_bytes(4, "little")
        with pytest.raises(ArtifactError, match="pos reference ids outside"):
            load_artifact(rebuilt)

    def test_read_artifact_header_verifies_but_skips_decode(self):
        from repro.io.artifact import read_artifact_header

        blob = self._blob()
        header = read_artifact_header(blob)
        assert header["schema"] == ARTIFACT_SCHEMA
        assert header["mode"] == "relevant"
        with pytest.raises(ArtifactError, match="checksum|short read"):
            read_artifact_header(blob[:-1])


class TestFingerprints:
    def test_program_fingerprint_is_content_addressed(self):
        p1, d1 = parse_program(GAME), parse_database(BOARD)
        p2, d2 = parse_program(GAME), parse_database(BOARD)
        assert program_fingerprint(p1, d1) == program_fingerprint(p2, d2)
        assert program_fingerprint(p1, d1) != program_fingerprint(p1, parse_database("move(9, 9)."))


class TestEngineArtifacts:
    def test_save_and_warm_start(self, tmp_path):
        engine = Engine(GAME, BOARD)
        path = engine.save_artifact(tmp_path / "game.repro-ground")
        warm = Engine.from_artifact(path)
        assert warm.ground_calls == 0
        assert warm.index_builds == 0  # the index arrives restored, not rebuilt
        assert warm.default_grounding == "relevant"
        assert "artifact_load_s" in warm.timings
        for semantics in ("well_founded", "tie_breaking", "stable"):
            assert _true_set(warm.solve(semantics)) == _true_set(engine.solve(semantics))
        # query paths ride the restored atom table and database
        assert warm.query_many(["win(1)", "win(3)"]) == engine.query_many(["win(1)", "win(3)"])

    def test_cached_artifact_respects_max_instances(self, tmp_path):
        path = Engine(GAME, BOARD).save_artifact(tmp_path / "game.repro-ground")
        warm = Engine.from_artifact(path)
        with pytest.raises(GroundingError):
            warm.ground_for("relevant", max_instances=1)

    def test_pool_adoption_across_modes(self, tmp_path):
        cold = Engine(GAME, BOARD)
        path = cold.save_artifact(tmp_path / "game.repro-ground")
        warm = Engine.from_artifact(path)
        # Grounding another mode on top of the loaded relevant grounding
        # extends the restored pool and still produces the same models.
        assert _true_set(warm.solve("fitting", grounding="full")) == _true_set(
            cold.solve("fitting", grounding="full")
        )
        assert warm.ground_calls == 1

    def test_artifact_records_its_grounding_mode(self, tmp_path):
        engine = Engine(GAME, BOARD)
        relevant = engine.save_artifact(tmp_path / "relevant.repro-ground")
        full = engine.save_artifact(tmp_path / "full.repro-ground", mode="full")
        assert relevant.read_bytes() != full.read_bytes()
        for path, mode in ((relevant, "relevant"), (full, "full")):
            warm = Engine.from_artifact(path)
            assert warm.default_grounding == mode
            assert _true_set(warm.solve("tie_breaking")) == _true_set(
                engine.solve("tie_breaking", grounding=mode)
            )
            assert warm.ground_calls == 0


class TestCanonicalSaves:
    @pytest.mark.parametrize("mode", ["relevant", "full"])
    def test_save_after_updates_is_canonical(self, mode, tmp_path):
        # An artifact stores G(Π, Δ) for the current Δ only: a live engine
        # saved after updates writes the bytes of a fresh engine over the
        # mutated database, with no trace of the updates that led there.
        live = Engine(GAME, BOARD, grounding=mode)
        live.ground_for()
        live.insert_facts("move(3, 1)")
        live.retract_facts("move(2, 3)")
        live.insert_facts("move(1, 1)")
        assert live.stats()["delta_applied"] == 3
        saved = live.save_artifact(tmp_path / "live.repro-ground").read_bytes()
        fresh = Engine(GAME, live.database.copy(), grounding=mode)
        expected = fresh.save_artifact(tmp_path / "fresh.repro-ground").read_bytes()
        assert saved == expected


class TestUnknownNames:
    def test_loader_ignores_unknown_sections_and_header_keys(self):
        # Artifacts written by earlier releases carry a ``deltas`` JSON
        # section and a ``pool_fingerprint`` header key; readers ignore
        # names they do not know, so those artifacts stay loadable.
        blob = dump_ground_program(_game())
        extra = json.dumps({"updates": [{"op": "insert", "facts": ["move(3, 1)"]}]}).encode()

        def add_legacy_names(header, payload):
            header["pool_fingerprint"] = "0" * 64
            header["deltas"] = {"updates": 1, "facts_inserted": 1, "facts_retracted": 0}
            header["sections"].append(["deltas", "json", len(extra)])
            payload.extend(extra)

        legacy = _reframe(blob, add_legacy_names)
        assert legacy != blob
        art = load_artifact(legacy)
        assert dump_ground_program(art.ground_program) == blob
        original = Engine.from_artifact(blob)
        warm = Engine.from_artifact(legacy)
        for semantics in ("well_founded", "tie_breaking", "stable"):
            assert _true_set(warm.solve(semantics)) == _true_set(original.solve(semantics))
