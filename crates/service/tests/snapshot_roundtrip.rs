//! Snapshot round-trip equivalence: a restored session is
//! *deterministic-identical* to a never-evicted one.
//!
//! The oracle is two-fold, per the snapshot design (inputs + history,
//! replayed through the live request paths):
//!
//! * **event-digest equality** — a [`TraceRecorder`] attached to both
//!   sessions sees bit-identical post-restore event streams for the
//!   same subsequent traffic;
//! * **counter equality** — cumulative [`OpCounters`] match exactly,
//!   including the cost of the propagate that follows the restore.
//!
//! Both are asserted under the eager *and* demand policies. The second
//! half of the file is the adversarial part: corrupted and truncated
//! snapshot bytes must yield typed [`SnapshotError`]s — never panics,
//! never a silently wrong session.

use std::sync::{Arc, Mutex};

use ceal_runtime::prelude::*;
use ceal_service::session::{ProgramCache, Session, SessionSpec};
use ceal_service::snapshot::{SnapshotError, SnapshotWriter};
use ceal_service::wire::{EditOp, PolicyArg, Workload};

fn attach(s: &mut Session) -> Arc<Mutex<TraceRecorder>> {
    let rec = TraceRecorder::shared();
    s.set_event_hook(Box::new(Arc::clone(&rec)));
    rec
}

/// Pre-snapshot traffic: enough history to make the replay nontrivial
/// (edits, elided edits, observations).
fn warm(s: &mut Session) {
    s.apply_edits(&[EditOp::Delete(2), EditOp::Delete(2), EditOp::Delete(7)]);
    s.observe();
    s.apply_edits(&[EditOp::Restore(2), EditOp::Delete(11)]);
    s.observe();
}

/// Post-restore traffic driven identically into both sessions while
/// the recorders listen.
fn drive(s: &mut Session) -> Vec<Value> {
    let mut out = Vec::new();
    s.apply_edits(&[EditOp::Delete(0), EditOp::Restore(7)]);
    out.push(s.observe().0);
    s.apply_edits(&[EditOp::Delete(5), EditOp::Delete(5)]);
    out.push(s.observe().0);
    out
}

fn roundtrip_matches_unevicted(policy: PolicyArg, workload: Workload) {
    let mut cache = ProgramCache::default();
    let spec = SessionSpec {
        workload,
        n: 24,
        seed: 0xBEEF,
        policy,
    };

    // The never-evicted control.
    let mut control = Session::open(spec, &mut cache);
    warm(&mut control);

    // The session that goes through bytes.
    let mut victim = Session::open(spec, &mut cache);
    warm(&mut victim);
    let bytes = victim.snapshot();
    let (mut restored, replayed) = Session::restore(&bytes, &mut cache).expect("restore");
    assert_eq!(replayed, 7, "3 + 1 observe + 2 + 1 observe history ops");

    // Restore must already have converged the cumulative counters:
    // replay runs the exact same engine calls the control ran.
    assert_eq!(
        restored.counters(),
        control.counters(),
        "{policy:?} pre-drive counters"
    );

    let rec_control = attach(&mut control);
    let rec_restored = attach(&mut restored);
    let out_control = drive(&mut control);
    let out_restored = drive(&mut restored);

    assert_eq!(
        out_control, out_restored,
        "{policy:?} observed values diverge"
    );
    assert_eq!(
        rec_control.lock().unwrap().digest_hex(),
        rec_restored.lock().unwrap().digest_hex(),
        "{policy:?} post-restore event digests diverge"
    );
    assert!(
        !rec_control.lock().unwrap().is_empty(),
        "oracle vacuous: no events recorded"
    );
    assert_eq!(
        restored.counters(),
        control.counters(),
        "{policy:?} cumulative counters"
    );
    assert_eq!(restored.history_len(), control.history_len());
}

#[test]
fn restored_eager_session_is_digest_identical_to_unevicted() {
    roundtrip_matches_unevicted(PolicyArg::Eager, Workload::Sum);
    roundtrip_matches_unevicted(PolicyArg::Eager, Workload::Min);
}

#[test]
fn restored_demand_session_is_digest_identical_to_unevicted() {
    roundtrip_matches_unevicted(PolicyArg::Demand, Workload::Sum);
    roundtrip_matches_unevicted(PolicyArg::Demand, Workload::Min);
}

/// A demand session snapshotted *between* an edit and its observe: the
/// deferred dirty state must survive the round trip (the next observe
/// on the restored session runs the same demand-clean pass).
#[test]
fn demand_session_with_pending_dirt_round_trips() {
    let mut cache = ProgramCache::default();
    let spec = SessionSpec {
        workload: Workload::Sum,
        n: 16,
        seed: 9,
        policy: PolicyArg::Demand,
    };
    let mut control = Session::open(spec, &mut cache);
    let mut victim = Session::open(spec, &mut cache);
    for s in [&mut control, &mut victim] {
        s.apply_edits(&[EditOp::Delete(3), EditOp::Delete(8)]);
        // No observe: the edits are still deferred dirty marks.
    }
    let bytes = victim.snapshot();
    let (mut restored, _) = Session::restore(&bytes, &mut cache).expect("restore");
    let (v_control, c_control) = control.observe();
    let (v_restored, c_restored) = restored.observe();
    assert_eq!(v_control, v_restored);
    assert_eq!(c_control, c_restored, "demand-clean cost must match");
    assert!(
        c_control.demand_cleans > 0,
        "oracle vacuous: observe cleaned nothing"
    );
    assert_eq!(restored.counters(), control.counters());
}

fn valid_snapshot() -> Vec<u8> {
    let mut cache = ProgramCache::default();
    let spec = SessionSpec {
        workload: Workload::Sum,
        n: 12,
        seed: 4,
        policy: PolicyArg::Eager,
    };
    let mut s = Session::open(spec, &mut cache);
    s.apply_edits(&[EditOp::Delete(1)]);
    s.observe();
    s.snapshot()
}

#[test]
fn every_truncation_yields_a_typed_error() {
    let bytes = valid_snapshot();
    let mut cache = ProgramCache::default();
    for cut in 0..bytes.len() {
        let err = Session::restore(&bytes[..cut], &mut cache)
            .err()
            .unwrap_or_else(|| panic!("truncation at {cut}/{} accepted", bytes.len()));
        // Any variant is fine; the point is a typed error, not a panic
        // or a session built from half a frame.
        let _ = err.to_string();
    }
}

#[test]
fn every_single_byte_flip_yields_a_typed_error() {
    let bytes = valid_snapshot();
    let mut cache = ProgramCache::default();
    for i in 0..bytes.len() {
        for bit in [0x01u8, 0x80] {
            let mut bad = bytes.clone();
            bad[i] ^= bit;
            assert!(
                Session::restore(&bad, &mut cache).is_err(),
                "flip at byte {i} (mask {bit:#x}) accepted"
            );
        }
    }
}

/// Structurally valid frames (good magic, version, checksum) whose
/// payload lies: wrong session tag, unknown workload, out-of-range
/// edit index. These reach the session decoder and must come back as
/// [`SnapshotError::Corrupt`].
#[test]
fn semantically_corrupt_frames_are_rejected() {
    let mut cache = ProgramCache::default();

    let mut w = SnapshotWriter::new();
    w.u8(99); // unknown session tag
    let r = Session::restore(&w.finish(), &mut cache);
    assert!(matches!(r, Err(SnapshotError::Corrupt(_))), "{r:?}");

    let mut w = SnapshotWriter::new();
    w.u8(1); // session tag
    w.u8(7); // unknown workload tag
    w.varint(8);
    w.u64(1);
    w.u8(0);
    w.varint(0);
    let r = Session::restore(&w.finish(), &mut cache);
    assert!(matches!(r, Err(SnapshotError::Corrupt(_))), "{r:?}");

    let mut w = SnapshotWriter::new();
    w.u8(1);
    w.u8(0); // sum
    w.varint(8); // n = 8
    w.u64(1);
    w.u8(0); // eager
    w.varint(1); // one history op
    w.u8(1); // edit batch
    w.varint(1); // one op
    w.u8(0); // delete
    w.varint(8); // index 8 out of range for n = 8
    let r = Session::restore(&w.finish(), &mut cache);
    assert!(matches!(r, Err(SnapshotError::Corrupt(_))), "{r:?}");

    // Trailing garbage after a well-formed body.
    let mut w = SnapshotWriter::new();
    w.u8(1);
    w.u8(0);
    w.varint(8);
    w.u64(1);
    w.u8(0);
    w.varint(0);
    w.u8(0xAB); // extra byte the decoder never consumes
    let r = Session::restore(&w.finish(), &mut cache);
    assert!(matches!(r, Err(SnapshotError::TrailingBytes(_))), "{r:?}");
}

#[test]
fn foreign_bytes_are_rejected_not_panicked_on() {
    let mut cache = ProgramCache::default();
    for bad in [&b""[..], b"\x00", b"hello, world", &[0xFF; 64][..]] {
        assert!(Session::restore(bad, &mut cache).is_err());
    }
}
